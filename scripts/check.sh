#!/bin/sh
# check.sh — the repo's pre-merge gate: build, vet, the full test suite
# under the race detector (the parallel pace search and the wave-parallel
# executor must stay data-race-free), then a short fuzz smoke over the
# native fuzz targets, a scheduler soak and a churn soak. Set SKIP_FUZZ=1
# to stop after the race tests, FUZZTIME (default 10s) to change the
# per-target fuzz budget, SOAKTIME (default 10s) for the scheduler soak,
# CHURNTIME (default 10s) for the online-admission churn soak, and
# RECALTIME (default 10s) for the closed-loop recalibration soak.
set -eu

FUZZTIME="${FUZZTIME:-10s}"
SOAKTIME="${SOAKTIME:-10s}"
CHURNTIME="${CHURNTIME:-10s}"
RECALTIME="${RECALTIME:-10s}"

cd "$(dirname "$0")/.."

echo "== go build ./..."
go build ./...

echo "== go vet ./..."
go vet ./...

echo "== go test -race ./..."
go test -race ./...

# The benchmark is its own module calling this module's internal packages;
# vet and test it the way benchmark/run.sh builds it, so a refactor that
# breaks one of its callers fails the gate.
echo "== benchmark module: go vet, go test"
(cd benchmark && GOWORK=off GOFLAGS=-mod=readonly go vet ./... &&
	GOWORK=off GOFLAGS=-mod=readonly go test ./...)

# The three knob twins below rerun the executor, scheduler, public API and
# differential tests (every caller of the shared firing driver) with one
# physical knob changed, matching CI. -count=1 forces a real run: the env
# knob is read at runner construction, which the test cache keys on only
# when the variable is actually read during the test.
TWIN_PKGS="./internal/exec ./internal/sched . ./internal/oracle"

# Chunk-boundary coverage: a tiny vectorized batch size, so bugs that only
# appear at chunk seams cannot hide behind the 1024-tuple default.
echo "== go test (ISHARE_BATCH=3)"
ISHARE_BATCH=3 go test -count=1 $TWIN_PKGS

# Sharing-off coverage: the arrangement registry disabled, so the
# private-state path stays proven equivalent (results and modeled work are
# required to be byte-identical in both modes; the oracle also flips the
# knob mid-churn).
echo "== go test (ISHARE_SHARE_ARRANGEMENTS=0)"
ISHARE_SHARE_ARRANGEMENTS=0 go test -count=1 $TWIN_PKGS

# Reuse-off coverage: window-level result reuse disabled, so the
# skip-clean-cones fast path stays proven observationally invisible
# (results, modeled work and event logs are required to be byte-identical
# in both modes; the oracle also flips the knob mid-churn).
echo "== go test (ISHARE_REUSE=0)"
ISHARE_REUSE=0 go test -count=1 $TWIN_PKGS

echo "== trace smoke (-experiment sched -trace)"
TRACE_OUT="$(mktemp /tmp/ishare-trace.XXXXXX.json)"
go run ./cmd/ishare -experiment sched -sf 0.02 -trace "$TRACE_OUT" >/dev/null
go run ./cmd/tracecheck "$TRACE_OUT"
rm -f "$TRACE_OUT"

echo "== event-log smoke (-experiment sched -events)"
EVENTS_OUT="$(mktemp /tmp/ishare-events.XXXXXX.jsonl)"
go run ./cmd/ishare -experiment sched -sf 0.02 -events "$EVENTS_OUT" >/dev/null
go run ./cmd/eventcheck -types window.close "$EVENTS_OUT"
rm -f "$EVENTS_OUT"

# Status smoke: serve the run's metrics (JSON and Prometheus text) and the
# live statusz view, and require all three endpoints to answer once the run
# has finished (the process keeps serving after the last window closes).
echo "== status smoke (-serve-metrics/-serve-status)"
go run ./cmd/ishare -experiment sched -sf 0.02 \
	-serve-metrics 127.0.0.1:19090 -serve-status 127.0.0.1:19091 >/dev/null 2>&1 &
ISHARE_PID=$!
STATUS_OK=
for _ in $(seq 1 60); do
	if curl -fsS 127.0.0.1:19091/statusz >/dev/null 2>&1; then
		STATUS_OK=1
		break
	fi
	sleep 1
done
[ -n "$STATUS_OK" ] || { echo "statusz never came up" >&2; kill "$ISHARE_PID"; exit 1; }
curl -fsS 127.0.0.1:19090/metrics | head -c 1 | grep -q '{'
curl -fsS 127.0.0.1:19090/prometheus | grep -q '^# TYPE '
curl -fsS 127.0.0.1:19091/statusz | grep -q '"window"'
kill "$ISHARE_PID"

# Informational benchmark diff: when both the frozen baseline and a current
# bench-json report exist, print the per-benchmark deltas. Never fails the
# gate — CI-runner noise is too high for a hard perf gate.
if [ -f BENCH_PR9.json ] && [ -f BENCH_PR10.json ]; then
	echo "== bench-diff (informational)"
	go run ./cmd/benchdiff BENCH_PR9.json BENCH_PR10.json || true
else
	echo "== bench-diff skipped (run 'make bench-json' to produce BENCH_PR10.json)"
fi

if [ "${SKIP_FUZZ:-}" != "1" ]; then
	echo "== scheduler soak ($SOAKTIME, race)"
	go test ./internal/sched -race -run TestSchedulerSoak -soaktime "$SOAKTIME"

	echo "== churn soak ($CHURNTIME, race)"
	go test ./internal/oracle -race -run TestChurnSoak -churntime "$CHURNTIME"

	echo "== recalibration soak ($RECALTIME, race)"
	go test ./internal/sched -race -run TestRecalibrationSoak -recaltime "$RECALTIME"

	echo "== fuzz smoke ($FUZZTIME per target)"
	go test ./internal/oracle -run '^$' -fuzz FuzzEngineVsOracle -fuzztime "$FUZZTIME"
	go test ./internal/sqlparser -run '^$' -fuzz FuzzParserRoundTrip -fuzztime "$FUZZTIME"
	go test ./internal/sqlparser -run '^$' -fuzz 'FuzzParse$' -fuzztime "$FUZZTIME"
fi

echo "OK"
