# Convenience targets for the reproduction. Stdlib-only; no network needed.

GO ?= go

# Single source of truth for the race-detector package list; CI runs
# `make race` so the two can never drift.
RACE_PKGS ?= ./internal/sim/ ./internal/analysis/ ./internal/routing/ ./internal/experiments/ ./internal/workload/ ./internal/server/ ./internal/store/ ./internal/permutation/ ./internal/campaign/

# Per-target budget for the fuzz smoke pass (`go test -fuzz` accepts one
# target per invocation). Entries are package:target.
FUZZTIME ?= 30s
FUZZ_TARGETS := ./internal/routing/:FuzzEdgeColorBipartite ./internal/routing/:FuzzBenesLooping ./internal/routing/:FuzzRouteTableParity ./internal/routing/:FuzzFaultLinkParity ./internal/permutation/:FuzzCanonicalParity

.PHONY: all build test race cover bench bench-json bench-gate fuzz-smoke batch-smoke coordinator-smoke frontier-smoke design-smoke fault-smoke sim-smoke smoke-filters prod-lines report tables examples clean

all: build test

build:
	$(GO) build ./...
	$(GO) vet ./...

test:
	$(GO) test ./...

# Batch-endpoint smoke: the mixed 50-point batch (duplicates + one invalid
# item), dedup/cache-hit counters, and the persistent-store restart path.
# CI runs this as its own step so a batch regression is named in the log.
batch-smoke:
	$(GO) test ./internal/server/ -count=1 -run 'TestBatch|TestFileStoreRestartHit'

# Coordinator smoke: the in-process distributed-parity tests (byte-identical
# merge, worker kill, checkpoint resume, SSE), then real binaries on
# loopback — two workers plus a coordinator — with an n=8 distributed sweep
# driven by nbverify -remote and diffed against the single-node engine.
coordinator-smoke:
	$(GO) test ./internal/server/ -count=1 -run 'TestCoordinatedSweep|TestSweepSSE'
	GO="$(GO)" ./scripts/coordinator_smoke.sh

# Frontier smoke: the symmetry-reduced sweep's byte-identity proofs — the
# engine property tests against the scratch oracle, the golden replay of
# every recorded sweep variant through Sweep, the server/coordinator
# parity and sym-shard checkpoint tests, then the real nbverify -sym
# binary diffed against the full engine at n=8 and certifying n=12 past
# the factorial wall.
frontier-smoke:
	$(GO) test ./internal/analysis/ -count=1 -run 'TestSweepExhaustiveSym|TestSym|TestSweepSymShard|TestSweepGolden'
	$(GO) test ./internal/server/ -count=1 -run 'TestSym|TestCoordinatedSym'
	GO="$(GO)" ./scripts/frontier_smoke.sh

# Design-explorer smoke: the planner property tests (binary search ==
# linear scan, certificate replays through a live /v1/verify, no-prune
# frontier equality), then nbdesign on the pinned catalog diffed against
# the committed golden frontier — locally and through /v1/design.
design-smoke:
	$(GO) test ./internal/design/ -count=1
	GO="$(GO)" ./scripts/design_smoke.sh

# Fault-campaign smoke: the campaign engine's byte-identity and
# no-failed-path property tests, the /v1/failures endpoint tests and the
# E11 golden replay, then the real nbverify -failures binary on a pinned
# small fabric diffed against the committed golden curves — sequentially,
# on a worker pool, and through a live nbserve.
fault-smoke:
	$(GO) test ./internal/campaign/ -count=1 -run 'TestRunParallelMatchesSequential|TestNoRouterEmitsFailedPath|TestAnalyzePatternParity'
	$(GO) test ./internal/server/ -count=1 -run 'TestFailures'
	$(GO) test ./internal/experiments/ -count=1 -run 'TestFaultGolden'
	GO="$(GO)" ./scripts/fault_smoke.sh

# Simulator smoke: the worker-count parity tests of RunTrials, LoadSweep
# and CompareToCrossbarParallel (every count returns the same results,
# Metrics and lowest-index error), then the real nbsim
# binary's -json reports for an open-loop sweep and for random trials,
# each diffed between -workers 1 and -workers 3.
sim-smoke:
	$(GO) test ./internal/sim/ -count=1 -run 'ParallelMatchesSequential|TestMetricsParallelIdenticalToSequential'
	GO="$(GO)" ./scripts/sim_smoke.sh

# Smoke-filter guard: `go test -run` passes when its filter matches
# nothing, so every |-alternative of every -run filter above must select
# at least one test (go test -list). CI runs it in the lint job; a renamed
# test then fails here instead of silently leaving a smoke target.
smoke-filters:
	GO="$(GO)" ./scripts/smoke_filters.sh

# Production Go line count (non-blank, non-comment, no tests, no
# perfbench/): the size figure simplicity changes report. CI prints it.
prod-lines:
	@./scripts/prod_lines.sh

race:
	$(GO) test -race $(RACE_PKGS)

cover:
	$(GO) test -coverprofile=cover.out ./internal/...
	$(GO) tool cover -func=cover.out | tail -1

bench:
	$(GO) test -bench=. -benchmem -run='^$$' . ./internal/...

# Refresh the committed benchmark baseline (run on a quiet machine).
bench-json:
	$(GO) run ./cmd/nbbench -out BENCH_sim.json

# CI regression gate: measure and compare against the committed baseline.
# Fails on >25% ns/op or any allocs/op regression; writes the fresh
# measurement next to the baseline for artifact upload.
bench-gate:
	$(GO) run ./cmd/nbbench -baseline BENCH_sim.json -out BENCH_fresh.json

# Short fuzz pass over the routing invariant targets (seed corpus plus
# $(FUZZTIME) of new inputs per target).
fuzz-smoke:
	@for t in $(FUZZ_TARGETS); do \
		pkg=$${t%%:*}; target=$${t#*:}; \
		echo "fuzz $$target in $$pkg ($(FUZZTIME))"; \
		$(GO) test $$pkg -run '^$$' -fuzz "^$$target$$" -fuzztime $(FUZZTIME) || exit 1; \
	done

# Regenerate the full experiment report (EXPERIMENTS.md's backing artifact).
report:
	$(GO) run ./cmd/nbreport > report.md

tables:
	$(GO) run ./cmd/nbtables -all

examples:
	$(GO) run ./examples/quickstart
	$(GO) run ./examples/clusterdesign
	$(GO) run ./examples/adaptive
	$(GO) run ./examples/simulation
	$(GO) run ./examples/collectives

clean:
	rm -f cover.out report.md test_output.txt bench_output.txt BENCH_fresh.json
