GO ?= go

# Pinned staticcheck version, matching .github/workflows/ci.yml.
STATICCHECK_VERSION ?= 2024.1.1

.PHONY: all build fmt vet staticcheck test bench-test race fuzz-smoke docs-lint loc check ci

all: check

build:
	$(GO) build ./...

# Formatting gate: gofmt must have nothing to rewrite, in either module.
fmt:
	@test -z "$$(gofmt -l .)" || { echo "gofmt -l:"; gofmt -l .; exit 1; }

vet:
	$(GO) vet ./...

# Runs staticcheck when the tool is on PATH; CI installs the pinned version,
# locally it is optional (no network fetch from a bare `make check`).
staticcheck:
	@if command -v staticcheck >/dev/null 2>&1; then \
		staticcheck ./...; \
	else \
		echo "staticcheck not installed; skipping (go install honnef.co/go/tools/cmd/staticcheck@$(STATICCHECK_VERSION))"; \
	fi

test:
	$(GO) test ./...

# The repository benchmark's driver (bench/, BENCHMARK.json) is a module of
# its own that compiles against internal/*: `go test ./...` does not build
# it, so an API change can break the benchmark with the root tests green.
# Its tests run every workload at 1/100 scale and check the golden digests.
bench-test:
	$(GO) test -C bench ./...

# Documentation gate: relative links in the top-level docs must resolve,
# and every internal/* package must carry a non-empty doc.go.
docs-lint:
	sh scripts/docs-lint.sh

# Go lines per package — non-test, test, bench/ — the figures ROADMAP.md
# quotes. Quote it before and after in a PR that claims to subtract.
loc:
	@sh scripts/loc.sh

# Race-focused pass over the concurrency-heavy packages: the RPC transport,
# the distributed control plane (including the chaos tests), the fleet
# coordinator, the budget arbiter (chaos property tests), the stage engine,
# the telemetry subsystem (ring buffers + registry under concurrent writers),
# the decision engine + statistics pipeline, the decision-trace recorder and
# replay arena, the multi-tenant harness, and the distributed benchmark
# harness.
race:
	$(GO) test -race ./internal/rpc/... ./internal/dist/... ./internal/fleet/... ./internal/arbiter/... ./internal/stage/... ./internal/telemetry/... ./internal/core/... ./internal/stats/... ./internal/replay/... ./internal/controlplane/... ./internal/live/... ./internal/benchnet/... ./internal/harness/...

# Every Fuzz* target (the frame layer and each hand-written body decoder) for
# five seconds, one `go test -fuzz` invocation per target because the tool
# fuzzes one at a time. Plain `go test` runs the same targets over their seed
# corpora only.
fuzz-smoke:
	@for pkg in $$($(GO) list ./internal/...); do \
		for target in $$($(GO) test -list '^Fuzz' $$pkg | grep '^Fuzz'); do \
			echo "fuzz $$pkg $$target"; \
			$(GO) test -run '^$$' -fuzz "^$$target\$$" -fuzztime 5s $$pkg || exit 1; \
		done; \
	done

# The fleet chaos smoke: a coordinator over three proxied node services,
# kill one mid-run, assert Σ granted ≤ budget at every epoch plus reclaim
# and re-admission. Exits non-zero on any violation.
.PHONY: fleet-smoke
fleet-smoke:
	$(GO) run ./examples/fleet

# The distributed benchmark smoke: spawn 4 local agent processes, fan one
# sharded schedule out over real RPC against a shared dist deployment, and
# merge the per-agent histograms into bench-net.json. The command line must
# match what results/BENCH_benchnet.json recorded, or the gate refuses the
# comparison.
.PHONY: bench-net
bench-net:
	$(GO) run ./cmd/powerbench -agents.spawn 4 -target dist -app websearch \
		-instances 2,1 -timescale 0.3 -arrivals constant -rate 20 \
		-duration 4s -warmup 500ms -workers 8 -seed 11 -json bench-net.json

# The decision-trace replay smoke: record a short DES trace under
# PowerChief, then replay it through the offline arena against three
# candidate policies. `powerbench replay` exits 1 unless the recording
# policy reproduces every recorded plan byte-identically from the
# snapshots alone — the determinism gate of DESIGN.md §5l.
.PHONY: bench-replay
bench-replay:
	$(GO) run ./cmd/powerbench -target des -app sirius -rate 3 -duration 120s \
		-warmup 10s -policy powerchief -ctl.interval 25s -seed 7 \
		-trace.out bench-replay-trace.jsonl.gz
	$(GO) run ./cmd/powerbench replay -trace bench-replay-trace.jsonl.gz \
		-policy powerchief,fairness,marginal -json bench-replay.json

# The benchmark gates, one dialect: every producer writes the one artifact
# envelope and the same `powerbench cmp <baseline> <fresh>` line gates each
# that has a checked-in baseline (README.md, "Artifacts and the gate": exit 1
# on a regression or a problem the fresh artifact lists, 2 if the two are not
# the same experiment). Bounds live in the baselines, next to each metric:
# loose for the wall-clock bench-net run — a broken merge, a stalled shard or
# a latency cliff, not scheduler jitter — and 20-25 % for the deterministic
# tenant (static halving vs the cross-app arbiter) and arbiter (Marginal vs
# Proportional on the skewed fleet) scenarios. The replay artifact has no
# checked-in baseline; its producer's determinism gate is the check.
.PHONY: bench-gates
bench-gates: bench-net bench-replay
	$(GO) run ./cmd/powerbench tenant -json bench-tenant.json
	$(GO) run ./cmd/powerbench arbiter -json bench-arbiter.json
	$(GO) run ./cmd/powerbench cmp results/BENCH_benchnet.json bench-net.json
	$(GO) run ./cmd/powerbench cmp results/BENCH_multitenant.json bench-tenant.json
	$(GO) run ./cmd/powerbench cmp results/BENCH_arbiter.json bench-arbiter.json

# The full local gate: what CI runs.
check: fmt vet staticcheck build test bench-test race fuzz-smoke docs-lint

ci: check
