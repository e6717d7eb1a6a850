GO ?= go
FUZZTIME ?= 30s

.PHONY: build test race vet bench bench-diff check fuzz oracle soak churn-soak recal-soak
SOAKTIME ?= 30s
CHURNTIME ?= 30s
RECALTIME ?= 30s

build:
	$(GO) build ./...

test:
	$(GO) test ./...

# race runs the full suite under the race detector; the parallel pace search
# and the wave-parallel runner are exercised by their equivalence tests.
race:
	$(GO) test -race ./...

vet:
	$(GO) vet ./...

bench:
	$(GO) test -bench=. -benchmem

# bench-diff measures an A/B env delta live with BENCH_INTERLEAVE
# interleaved runs per side and reports the medians — the only defensible
# acceptance method for a micro-benchmark on a noisy host. The default A/B
# compares the window-reuse fast path off vs on. The end-to-end benchmark is
# `bash benchmark/run.sh` (see benchmark/README.md).
BENCH_INTERLEAVE ?= 5
BENCH_PATTERN ?= BenchmarkWindowReuse
BENCH_PKG ?= ./internal/exec
BENCH_ENV_A ?= ISHARE_REUSE=0
BENCH_ENV_B ?= ISHARE_REUSE=1
bench-diff:
	$(GO) run ./cmd/benchdiff -interleave $(BENCH_INTERLEAVE) -bench $(BENCH_PATTERN) \
		-pkg $(BENCH_PKG) -benchtime 100x -env-a $(BENCH_ENV_A) -env-b $(BENCH_ENV_B)

check:
	./scripts/check.sh

# fuzz runs each native fuzz target for FUZZTIME (default 30s). Crashers are
# minimized by the go tool and land under testdata/fuzz/ as new corpus seeds.
fuzz:
	$(GO) test ./internal/oracle -run '^$$' -fuzz FuzzEngineVsOracle -fuzztime $(FUZZTIME)
	$(GO) test ./internal/sqlparser -run '^$$' -fuzz FuzzParserRoundTrip -fuzztime $(FUZZTIME)
	$(GO) test ./internal/sqlparser -run '^$$' -fuzz FuzzParse$$ -fuzztime $(FUZZTIME)

# soak fuzzes the scheduler runtime for SOAKTIME (default 30s) of wall
# clock under the race detector: random workloads, pace vectors, window
# splits, worker counts and injected slowdowns, each scenario checked for
# byte-identical reruns and oracle-matching results. Scenario clocks are
# virtual; SOAKTIME only bounds how many scenarios run.
soak:
	$(GO) test ./internal/sched -race -run TestSchedulerSoak -soaktime $(SOAKTIME) -v

# churn-soak fuzzes online admission for CHURNTIME (default 30s) of wall
# clock under the race detector: random workloads carrying random
# admit/retire schedules, each driven through the graft path with state
# transplant on and off and checked against the naive oracle after every
# window, with a byte-identical final work report required against a
# from-scratch build of the final plan.
churn-soak:
	$(GO) test ./internal/oracle -race -run TestChurnSoak -churntime $(CHURNTIME) -v

# recal-soak fuzzes the closed cost loop for RECALTIME (default 30s) of wall
# clock under the race detector: random workloads, pace vectors, injected
# slowdowns and recalibration policies, each scenario required to re-run
# byte-identically and to match the oracle no matter how often the paces
# were re-searched mid-run.
recal-soak:
	$(GO) test ./internal/sched -race -run TestRecalibrationSoak -recaltime $(RECALTIME) -v

# oracle runs the full (non -short) differential suite: hundreds of seeded
# workloads, each checked under batch, random pace vectors, Workers 1 and 4,
# and three decomposed builds against the naive reference evaluator.
oracle:
	$(GO) test ./internal/oracle -run 'TestDifferential|TestInjectedBugCaught|TestShrunkSeeds' -v
