#!/usr/bin/env bash
# Builds the e2ebench command from this source tree and runs it with the
# given arguments, from the root of the tree:
#
#   bash e2ebench/run.sh --workload task_flood --seed 1 --seconds 10 --trace 0
#
# Everything the build writes (binary, Go build cache, module cache,
# toolchain config) stays under the build directory: $CARGO_TARGET_DIR
# when set, .bench_build otherwise. The build never downloads anything.
set -euo pipefail

root="$(cd "$(dirname "$0")/.." && pwd)"
build="${CARGO_TARGET_DIR:-.bench_build}"
case "$build" in
/*) ;;
*) build="$root/$build" ;;
esac
mkdir -p "$build"

export GOCACHE="$build/gocache" GOMODCACHE="$build/gomodcache" GOPATH="$build/gopath"
export XDG_CONFIG_HOME="$build/config" GOTOOLCHAIN=local GOPROXY=off GOFLAGS=-mod=mod GOWORK=off

(cd "$root/e2ebench" && go build -o "$build/e2ebench" .)
cd "$root"
exec "$build/e2ebench" "$@"
