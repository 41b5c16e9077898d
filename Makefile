GO ?= go

.PHONY: check fmt vet test race build cover bench-transport bench-fleet bench-obs bench-adversary bench-image bench-federation bench-staging

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

## bench-transport: regenerate the transport fast-path regression gate
## (BENCH_transport.json) — fails if the broadcast encode counter is not
## flat in session count or the binary codec's alloc win drops below 2x.
bench-transport:
	$(GO) run ./cmd/oddci-bench -sweep transport -out BENCH_transport.json

## bench-fleet: regenerate the million-PNA harness gate
## (BENCH_fleet.json) — wakeup→quorum at n = 10³…10⁶ in one process,
## failing if any availability or ramp-up curve leaves its analytic
## tolerance.
bench-fleet:
	$(GO) run ./cmd/oddci-bench -sweep fleet -out BENCH_fleet.json

## bench-obs: regenerate the tracing overhead gate (BENCH_obs.json) —
## fails if the sampled-off span collector costs the binary task
## hand-off more than 2% versus the untraced baseline, or allocates.
bench-obs:
	$(GO) run ./cmd/oddci-bench -sweep obs -out BENCH_obs.json

## bench-adversary: regenerate the byzantine hardening gate
## (BENCH_adversary.json) — full adversarial deployments over fraction ×
## replication × seed, failing on any wrong commit at Replication 5, on
## quarantine coverage below 95% of the byzantine population, or if
## arming credibility tracking costs the honest dispatch path more
## than 3%.
bench-adversary:
	$(GO) run ./cmd/oddci-bench -sweep adversary -out BENCH_adversary.json

## bench-image: regenerate the delta image distribution gate
## (BENCH_image.json) — re-air wire bytes must stay within 1.25x the
## changed module payload at 1/16, 1/4 and full deltas, cache-warm and
## legacy receivers must both converge (the latter under 20% section
## loss), and transport staging encodes must be flat in session count.
bench-image:
	$(GO) run ./cmd/oddci-bench -sweep image -out BENCH_image.json

## bench-federation: regenerate the sharded control plane gate
## (BENCH_federation.json) — convergence at 1→16 coordinator shards must
## stay within 1.15x the single-shard baseline, a killed shard must
## journal-fail-over and reconverge with zero duplicate wakeups (also
## re-run at 10^6 PNAs in the SoA engine), and the shared chunk cache
## must hit on every shard after the first.
bench-federation:
	$(GO) run ./cmd/oddci-bench -sweep federation -out BENCH_federation.json

## bench-staging: per-layer microbenchmarks of broadcast staging on the
## host — image verify and control-file open, cold (full hash/signature
## check) versus memo hit, and carousel fan-out of a 1 MiB image to
## N = 32 and 1024 receivers, whose bytes/op must not grow with N × image.
bench-staging:
	$(GO) test -run '^$$' -bench 'Verify|OpenAll|BroadcasterFanout' -benchmem ./internal/appimage ./internal/control ./internal/dsmcc
