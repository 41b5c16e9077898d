GO ?= go

.PHONY: check fmt vet test race build cover bench bench-staging

## check: the full tier-1 gate — formatting, vet, build, tests with the
## race detector (the lifecycle churn stress and the federation
## cross-shard churn stress must pass under -race), and the coverage
## floor on the telemetry packages.
check: fmt vet race cover

fmt:
	@out="$$(gofmt -l .)"; \
	if [ -n "$$out" ]; then \
		echo "gofmt needed on:"; echo "$$out"; exit 1; \
	fi

vet:
	$(GO) vet ./...

build:
	$(GO) build ./...

test:
	$(GO) test ./...

race:
	$(GO) test -race ./...

## cover: enforce per-package coverage floors — the observability layer
## (obs registry/exposition, trace recorder), the Controller (lifecycle
## plus crash recovery), the journal persistence layer, the Backend
## scheduler (dispatch, lease reclaim, draining), the transport fast
## path (framing, binary codec, coordinator/node loops), the fleet
## simulation harness (SoA engine, timing wheel integration, analytic
## cross-validation), the federation layer — the system's Provider
## (capacity splitting, multi-part instances, consistent-hash ring,
## cross-shard rebalancing, journal failover) — the netsim layer (links,
## faults, and the byzantine adversary plan), the DSM-CC carousel
## codec (hashes, delta cycles, chunk cache, receiver interop), and the
## image and control-file verifiers with their verification memos.
COVER_PKGS ?= ./internal/obs:85 ./internal/trace:85 ./internal/span:80 ./internal/core/controller:85 ./internal/journal:78 ./internal/core/backend:82 ./internal/transport:75 ./internal/fleet:75 ./internal/federation:80 ./internal/netsim:85 ./internal/dsmcc:80 ./internal/appimage:90 ./internal/control:85
cover:
	@for entry in $(COVER_PKGS); do \
		pkg="$${entry%%:*}"; floor="$${entry##*:}"; \
		pct="$$($(GO) test -cover $$pkg | sed -n 's/.*coverage: \([0-9.]*\)%.*/\1/p')"; \
		if [ -z "$$pct" ]; then echo "$$pkg: no coverage reported"; exit 1; fi; \
		ok="$$(awk -v p="$$pct" -v f="$$floor" 'BEGIN { print (p >= f) ? 1 : 0 }')"; \
		if [ "$$ok" != 1 ]; then \
			echo "$$pkg: coverage $$pct% below floor $$floor%"; exit 1; \
		fi; \
		echo "$$pkg: coverage $$pct% (floor $$floor%)"; \
	done

## bench: regenerate BENCH.json, the one report of every oddci-bench
## gate sweep — {env, rows, gates}, stamped with the Go version,
## platform, CPU and git revision — and fail, after writing it, naming
## every failed gate. The sweeps and their gates:
##   fleet       wakeup→quorum at n = 10³…10⁶ PNAs in one process, every
##               availability and ramp-up curve within its analytic
##               tolerance (first, so its peak RSS is its own);
##   backend     scheduler dispatch/commit/round-trip throughput, a
##               starved dispatch invalidating the measurement;
##   transport   broadcast encodes flat in session count, binary task
##               plane at least 2x fewer allocs than JSON;
##   obs         sampled-off span collector within 2% of untraced and
##               allocation-free on the task hand-off;
##   adversary   no wrong commit at Replication 5, ≥95% of byzantine nodes
##               quarantined, armed dispatch within 3% of baseline;
##   image       re-air wire bytes within 1.25x the changed payload at
##               1/16, 1/4 and full deltas, cache-warm and legacy
##               receivers converging (the latter under 20% section
##               loss), transport staging encodes flat in session count;
##   federation  convergence at 1→16 shards within 1.15x one shard, journal
##               failover with zero duplicate wakeups (also at 10⁶ PNAs in
##               the SoA engine), shared chunk cache hitting ≥70%.
## -buildvcs=true stamps the git revision into the binary `go run` builds.
bench:
	$(GO) run -buildvcs=true ./cmd/oddci-bench -out BENCH.json \
		-sweep fleet,backend,transport,obs,adversary,image,federation

## bench-staging: per-layer microbenchmarks of broadcast staging on the
## host — image verify and control-file open, cold (full hash/signature
## check) versus memo hit, and carousel fan-out of a 1 MiB image to
## N = 32 and 1024 receivers, whose bytes/op must not grow with N × image.
bench-staging:
	$(GO) test -run '^$$' -bench 'Verify|OpenAll|BroadcasterFanout' -benchmem ./internal/appimage ./internal/control ./internal/dsmcc
