package main

import (
	"fmt"
	"math"
	"runtime"
	"sort"
	"strings"
	"time"

	"ishare/internal/value"
)

// config fixes a run: the command-line arguments plus the workload scale.
// The scale fields are set by fullScale; tests shrink them.
type config struct {
	Workload string
	Seed     int64
	Seconds  float64
	Trace    bool
	// SpansDir receives the traced pass's spans; "" keeps them in memory.
	SpansDir string

	// Setups is how many times a run sets up; setup_s is their median.
	Setups int
	// MaxPace is the optimizer's J.
	MaxPace int

	// plan-mix: Requests planning requests per pass over a catalog at
	// PlanSF, each binding MinQ..MaxQ distinct TPC-H queries.
	PlanSF     float64
	Requests   int
	MinQ, MaxQ int

	// stream: StreamWindows trigger windows over a StreamSF stream.
	StreamSF      float64
	StreamWindows int

	// churn: ChurnWindows windows over a ChurnSF stream, ChurnMin..ChurnMax
	// active queries planned at ChurnMaxPace.
	ChurnSF            float64
	ChurnWindows       int
	ChurnMin, ChurnMax int
	ChurnMaxPace       int
}

// workers is the optimizer's and the scheduler's worker count. It must stay
// 1: threadCPU counts only the client thread, so work done on other worker
// goroutines would drop out of every end-to-end time.
const workers = 1

// updateFrac is the share of fact rows updated in the streams.
const updateFrac = 0.1

// windowLen is the trigger window on the virtual clock.
const windowLen = time.Second

// fullScale is the scale the recorded benchmark runs at.
func fullScale() config {
	return config{
		Setups:        3,
		MaxPace:       40,
		PlanSF:        1,
		Requests:      210,
		MinQ:          4,
		MaxQ:          10,
		StreamSF:      0.5,
		StreamWindows: 1000,
		ChurnSF:       0.1,
		ChurnWindows:  60,
		ChurnMin:      4,
		ChurnMax:      12,
		ChurnMaxPace:  10,
	}
}

// passKind selects how a pass runs the workload.
type passKind int

const (
	// plain runs the deployment as configured, untraced: the end-to-end
	// numbers come from these passes.
	plain passKind = iota
	// traced is plain plus span recording and the program's own tracer.
	traced
	// bare is plain with the observability sinks (profile, event log,
	// status board) off, for the sinks' overhead.
	bare
)

func (k passKind) String() string { return [...]string{"plain", "traced", "bare"}[k] }

// passOut is what one pass measured.
type passOut struct {
	kind passKind
	// busy is the thread CPU time of the pass's timed operations, checks
	// and probes excluded.
	busy time.Duration
	// elapsed is the pass's wall time, tracing included and probes excluded.
	elapsed time.Duration
	// probe is the wall time a traced pass spent in the benchmark's own
	// out-of-path probes (cold cost-model evaluations, shared-plan builds),
	// which is neither the program's work nor tracing.
	probe time.Duration
	// ops counts the operations the pass timed (requests or windows).
	ops int
	// samples holds latency samples by name; latency names the set that
	// latency_ms reports.
	samples map[string][]float64
	latency string
	// results holds each query's final result for verify.
	results [][]value.Row
	// scalars holds the pass's end-to-end values by name (throughput,
	// work, heap_mb and the workload's named metrics).
	scalars map[string]float64
	// exact holds values that must repeat to the digit across passes and
	// runs of one seed, rendered as text.
	exact map[string]string
	// layers holds per-layer metrics (traced passes).
	layers map[string]float64
	// attempted and failed count operations and checks; problems says why
	// each failure failed.
	attempted, failed int
	problems          []string
	// allocMB and gcMS are the Go runtime's allocation and GC pause during
	// the pass.
	allocMB, gcMS float64
}

func newPassOut(kind passKind) *passOut {
	return &passOut{
		kind:    kind,
		samples: map[string][]float64{},
		scalars: map[string]float64{},
		exact:   map[string]string{},
		layers:  map[string]float64{},
	}
}

// fail records a failed operation.
func (p *passOut) fail(format string, args ...interface{}) {
	p.failed++
	if len(p.problems) < 20 {
		p.problems = append(p.problems, fmt.Sprintf(format, args...))
	}
}

// workload is one benchmark workload.
type workload interface {
	// setup builds every input from the seed; it is timed for setup_s.
	setup() error
	// pass runs the workload once from fresh program state.
	pass(kind passKind, rec *recorder) (*passOut, error)
	// verify checks a pass's outputs against an independent reference,
	// counting each check into the pass's attempted and failed.
	verify(p *passOut) error
	// kinds is the cycle of pass kinds a traced run repeats.
	traceKinds() []passKind
	// named lists the workload's end-to-end metrics under the workload's own
	// names, for the report lines.
	named(plain []*passOut, setupS float64) []namedMetric
}

// namedMetric is one line of the human-readable report.
type namedMetric struct {
	name  string
	value float64
	unit  string
	n     int // sample count; 0 for a single value
}

func newWorkload(cfg config) (workload, error) {
	switch cfg.Workload {
	case "plan-mix":
		return &planMix{cfg: cfg}, nil
	case "stream":
		return &stream{cfg: cfg}, nil
	case "churn":
		return &churn{cfg: cfg}, nil
	}
	return nil, fmt.Errorf("unknown workload %q (want plan-mix, stream or churn)", cfg.Workload)
}

// outcome is a finished run.
type outcome struct {
	correct           bool
	attempted, failed int
	problems          []string
	metrics           map[string]float64
	lines             []string
	spansPath         string
}

// run sets the workload up cfg.Setups times, then runs passes until
// cfg.Seconds of passes have elapsed, and assembles the result. Everything
// runs on the calling goroutine, locked to its thread so that threadCPU
// measures the measured calls.
func run(cfg config) (*outcome, error) {
	runtime.LockOSThread()
	defer runtime.UnlockOSThread()
	w, err := newWorkload(cfg)
	if err != nil {
		return nil, err
	}
	setupS := make([]float64, cfg.Setups)
	for i := range setupS {
		runtime.GC()
		t := threadCPU()
		if err := w.setup(); err != nil {
			return nil, fmt.Errorf("setup: %w", err)
		}
		setupS[i] = (threadCPU() - t).Seconds()
	}

	kinds := []passKind{plain}
	if cfg.Trace {
		kinds = w.traceKinds()
	}
	var passes []*passOut
	var lastRec *recorder
	start := time.Now()
	for i := 0; ; i++ {
		kind := kinds[i%len(kinds)]
		var rec *recorder
		if kind == traced {
			rec = newRecorder()
		}
		runtime.GC()
		var before runtime.MemStats
		runtime.ReadMemStats(&before)
		t := time.Now()
		p, err := w.pass(kind, rec)
		if err != nil {
			return nil, fmt.Errorf("%s pass %d: %w", kind, i, err)
		}
		var after runtime.MemStats
		runtime.ReadMemStats(&after)
		p.allocMB = float64(after.TotalAlloc-before.TotalAlloc) / (1 << 20)
		p.gcMS = float64(after.PauseTotalNs-before.PauseTotalNs) / 1e6
		p.elapsed = time.Since(t) - p.probe
		if i == 0 {
			if err := w.verify(p); err != nil {
				return nil, fmt.Errorf("verify: %w", err)
			}
		}
		p.results = nil
		if rec != nil {
			if err := rec.check(); err != nil {
				p.fail("traced pass %d: %v", i, err)
			}
			addSelfTimes(p, rec)
			lastRec = rec
		}
		passes = append(passes, p)
		done := len(passes)
		elapsed := time.Since(start).Seconds()
		perPass := elapsed / float64(done)
		if done%len(kinds) == 0 && elapsed+perPass > cfg.Seconds {
			break
		}
	}
	return assemble(cfg, w, setupS, passes, lastRec)
}

// assemble turns the passes into the run's outcome: every exact value a
// pass records must repeat the first value any pass recorded under its name,
// failures are summed, and the metrics the mode reports are computed.
func assemble(cfg config, w workload, setupS []float64, passes []*passOut, rec *recorder) (*outcome, error) {
	out := &outcome{metrics: map[string]float64{}}
	first := passes[0]
	for _, p := range passes {
		out.attempted += p.attempted
		out.failed += p.failed
		out.problems = append(out.problems, p.problems...)
	}
	exact, diffs := exactValues(passes)
	out.attempted += len(passes) - 1
	out.failed += len(diffs)
	out.problems = append(out.problems, diffs...)
	out.correct = out.failed == 0

	byKind := map[passKind][]*passOut{}
	for _, p := range passes {
		byKind[p.kind] = append(byKind[p.kind], p)
	}
	plains := byKind[plain]
	setup := median(setupS)
	failPct := 100 * float64(out.failed) / float64(out.attempted)

	out.lines = append(out.lines, fmt.Sprintf("run workload=%s seed=%d trace=%v passes=%d (%s) setups=%d",
		cfg.Workload, cfg.Seed, cfg.Trace, len(passes), passKinds(passes), len(setupS)))
	for _, k := range sortedKeys(exact) {
		out.lines = append(out.lines, fmt.Sprintf("exact %s %s", k, exact[k]))
	}
	for _, m := range w.named(plains, setup) {
		out.lines = append(out.lines, m.String())
	}
	out.lines = append(out.lines, namedMetric{name: "fail_pct", value: failPct, unit: "%"}.String())

	if !cfg.Trace {
		lat := pooled(plains, first.latency)
		out.metrics["setup_s"] = setup
		out.metrics["latency_ms.p50"] = median(lat)
		out.metrics["latency_ms.p90"] = percentile(lat, 0.9)
		if !tailOK(len(lat), 90) {
			return nil, fmt.Errorf("latency_ms.p90 needs 100 samples, the run took %d", len(lat))
		}
		for _, name := range []string{"throughput", "work", "heap_mb"} {
			out.metrics[name] = medianScalar(plains, name)
		}
		return out, nil
	}

	traces := byKind[traced]
	for _, m := range perLayer {
		vals := make([]float64, 0, len(traces))
		for _, p := range traces {
			vals = append(vals, p.layers[m.name])
		}
		out.metrics[m.name] = median(vals)
	}
	ops := float64(first.ops)
	out.metrics["go.alloc_mb"] = median(collect(plains, func(p *passOut) float64 { return p.allocMB })) / ops
	out.metrics["go.gc_ms"] = median(collect(plains, func(p *passOut) float64 { return p.gcMS })) / ops
	plainElapsed := median(collect(plains, func(p *passOut) float64 { return p.elapsed.Seconds() }))
	tracedElapsed := median(collect(traces, func(p *passOut) float64 { return p.elapsed.Seconds() }))
	out.metrics["trace.overhead_pct"] = 100 * (tracedElapsed - plainElapsed) / plainElapsed
	if bares := byKind[bare]; len(bares) > 0 {
		plainBusy := median(collect(plains, busyMS))
		bareBusy := median(collect(bares, busyMS))
		out.metrics["obs.overhead_pct"] = 100 * (plainBusy - bareBusy) / bareBusy
	}
	if rec != nil && cfg.SpansDir != "" {
		path, err := rec.write(cfg.SpansDir, fmt.Sprintf("%s-seed%d.jsonl", cfg.Workload, cfg.Seed))
		if err != nil {
			return nil, fmt.Errorf("write spans: %w", err)
		}
		out.spansPath = path
	}
	for name := range out.metrics {
		if !knownLayerMetric(name) {
			return nil, fmt.Errorf("per-layer metric %q is not declared", name)
		}
	}
	return out, nil
}

// addSelfTimes stores each layer's self time per operation into a traced
// pass's layer metrics. Execution runs inside the scheduler's Tick spans; the
// profile's per-firing wall time (exec.busy_ms) moves it from sched's self
// time to exec's.
func addSelfTimes(p *passOut, rec *recorder) {
	ops := float64(p.ops)
	for layer, ms := range rec.layerSelfMS() {
		p.layers[layer+".self_ms"] = ms / ops
	}
	busy := p.layers["exec.busy_ms"]
	p.layers["exec.self_ms"] += busy
	p.layers["sched.self_ms"] = math.Max(0, p.layers["sched.self_ms"]-busy)
}

func busyMS(p *passOut) float64 { return float64(p.busy) / 1e6 }

func collect(ps []*passOut, f func(*passOut) float64) []float64 {
	out := make([]float64, len(ps))
	for i, p := range ps {
		out[i] = f(p)
	}
	return out
}

func medianScalar(ps []*passOut, name string) float64 {
	return median(collect(ps, func(p *passOut) float64 { return p.scalars[name] }))
}

func passKinds(ps []*passOut) string {
	n := map[passKind]int{}
	for _, p := range ps {
		n[p.kind]++
	}
	var parts []string
	for k := plain; k <= bare; k++ {
		if n[k] > 0 {
			parts = append(parts, fmt.Sprintf("%s=%d", k, n[k]))
		}
	}
	return strings.Join(parts, " ")
}

// exactValues merges the passes' exact values, keeping the first value any
// pass recorded under each name, and describes every later pass that records
// a different value under a name. Traced passes record more exact values
// than plain ones, so each value is compared with whichever pass recorded it
// first, not with the first pass.
func exactValues(passes []*passOut) (map[string]string, []string) {
	seen := map[string]string{}
	var diffs []string
	for i, p := range passes {
		for _, k := range sortedKeys(p.exact) {
			v := p.exact[k]
			sv, ok := seen[k]
			if !ok {
				seen[k] = v
			} else if sv != v {
				diffs = append(diffs, fmt.Sprintf("pass %d (%s) is not deterministic: %s: %s vs %s", i, p.kind, k, sv, v))
				break
			}
		}
	}
	return seen, diffs
}

func sortedKeys[V any](m map[string]V) []string {
	keys := make([]string, 0, len(m))
	for k := range m {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	return keys
}

func (m namedMetric) String() string {
	s := fmt.Sprintf("metric %s %.6g %s", m.name, m.value, m.unit)
	if m.n > 0 {
		s += fmt.Sprintf(" n=%d", m.n)
	}
	return s
}

// latencyMetrics names the p50 and, where enough samples lie beyond them,
// the listed tail percentiles of one latency.
func latencyMetrics(name string, xs []float64, tails ...int) []namedMetric {
	out := []namedMetric{{name: name + ".p50", value: median(xs), unit: "ms", n: len(xs)}}
	for _, pct := range tails {
		if tailOK(len(xs), pct) {
			out = append(out, namedMetric{name: fmt.Sprintf("%s.p%d", name, pct), value: percentile(xs, float64(pct)/100), unit: "ms", n: len(xs)})
		}
	}
	return out
}

// pooled concatenates one named sample set across passes.
func pooled(ps []*passOut, name string) []float64 {
	var out []float64
	for _, p := range ps {
		out = append(out, p.samples[name]...)
	}
	return out
}
