package sched_test

import (
	"bytes"
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
	"sort"
	"strings"
	"testing"
	"time"

	"ishare/internal/cost"
	"ishare/internal/eventlog"
	"ishare/internal/pace"
	"ishare/internal/profile"
	"ishare/internal/sched"
	"ishare/internal/trace"
)

// sinkFiles names the renderings one golden sink run pins, as file
// suffixes under testdata/sinks/.
var sinkFiles = []string{"events.jsonl", "trace.json", "metrics.json", "metrics.prom", "status.json"}

// sinkRun is one scheduler run with every observability sink attached.
type sinkRun struct {
	s     *sched.Scheduler
	ev    *eventlog.Log
	tr    *trace.Tracer
	board *sched.StatusBoard
}

// newSinkRun attaches a fresh event log, a tracer on the run's virtual
// clock and a status board to cfg, then builds the scheduler.
func newSinkRun(t *testing.T, tp *testPlan, paces []int, src sched.Source, cfg sched.Config) *sinkRun {
	t.Helper()
	clock := sched.NewVirtualClock(time.Unix(0, 0))
	r := &sinkRun{ev: eventlog.New(nil, 0), tr: trace.NewWithClock(clock.Now), board: &sched.StatusBoard{}}
	cfg.Clock = clock
	cfg.Events = r.ev
	cfg.Tracer = r.tr
	cfg.TraceName = "golden"
	cfg.Status = r.board
	s, err := sched.New(tp.graph, paces, src, cfg)
	if err != nil {
		t.Fatal(err)
	}
	r.s = s
	return r
}

// render returns every sink's bytes keyed by sinkFiles suffix.
func (r *sinkRun) render(t *testing.T) map[string][]byte {
	t.Helper()
	out := map[string][]byte{}
	var buf bytes.Buffer
	if err := r.ev.WriteJSONL(&buf); err != nil {
		t.Fatal(err)
	}
	out["events.jsonl"] = append([]byte(nil), buf.Bytes()...)
	buf.Reset()
	if err := r.tr.WriteChrome(&buf); err != nil {
		t.Fatal(err)
	}
	out["trace.json"] = append([]byte(nil), buf.Bytes()...)
	snap := r.s.Snapshot()
	js, err := snap.JSON()
	if err != nil {
		t.Fatal(err)
	}
	out["metrics.json"] = js
	buf.Reset()
	if err := snap.WritePrometheus(&buf); err != nil {
		t.Fatal(err)
	}
	out["metrics.prom"] = append([]byte(nil), buf.Bytes()...)
	st, ok := r.board.Current()
	if !ok {
		t.Fatal("no status published")
	}
	sj, err := json.MarshalIndent(st, "", " ")
	if err != nil {
		t.Fatal(err)
	}
	out["status.json"] = sj
	return out
}

// degradeRecalScenario serves an eager pace vector against a profiler
// baseline a third of the plan's calibrated work: window 0 overloads and
// degrades, the drift alerts of windows 0 and 1 trigger a recalibration
// with a warm pace re-search at window 1, and the run continues on the
// re-searched paces.
func degradeRecalScenario(t *testing.T, workers int) map[string][]byte {
	tp := buildPlan(t, 11)
	nq := tp.graph.Plan.NumQueries()
	paces := make([]int, len(tp.graph.Subplans))
	for i := range paces {
		paces[i] = 6
	}
	matrix := calibrate(t, tp, paces, 1)
	base := make([]float64, len(paces))
	for i := range base {
		base[i] = matrix[[2]int{0, i}] / 3
	}
	constraints := make([]float64, nq)
	for i := range constraints {
		constraints[i] = 1e12
	}
	model := cost.NewModel(tp.graph)
	opt, err := pace.NewOptimizer(model, constraints, 8)
	if err != nil {
		t.Fatal(err)
	}
	if _, _, err := opt.Greedy(); err != nil {
		t.Fatal(err)
	}
	deadlines := make([]time.Duration, nq)
	for i := range deadlines {
		deadlines[i] = 2 * time.Millisecond
	}
	r := newSinkRun(t, tp, paces, sched.Replay{Data: tp.data}, sched.Config{
		Window:    time.Second,
		Windows:   5,
		WorkRate:  5_000,
		Deadlines: deadlines,
		Workers:   workers,
		Profile:   profile.New(profile.Config{Subplans: len(paces), Modeled: base, Bound: 2}),
		Recalibrate: &sched.RecalibratePolicy{
			Model:         model,
			Constraints:   constraints,
			MaxPace:       8,
			Persistence:   2,
			BaselineScale: 1,
		},
	})
	if _, err := r.s.Run(); err != nil {
		t.Fatal(err)
	}
	return r.render(t)
}

// graftIdleScenario serves query 0 alone over a stream whose second window
// carries no deltas (every firing in it is a clean-cone skip), admits query
// 1 by a graft before window 2, and finishes on an idle window 3.
func graftIdleScenario(t *testing.T, workers int) map[string][]byte {
	cp := buildChurnPlan(t, 7)
	tp := &testPlan{graph: cp.gA, data: cp.data}
	base := make([]float64, len(cp.gA.Subplans))
	for i := range base {
		base[i] = 40
	}
	r := newSinkRun(t, tp, cp.pacesA, idleMiddle{data: cp.data}, sched.Config{
		Window:    time.Second,
		Windows:   4,
		WorkRate:  50_000,
		Deadlines: []time.Duration{100 * time.Millisecond},
		Workers:   workers,
		Profile:   profile.New(profile.Config{Subplans: len(base), Modeled: base}),
	})
	for win := 0; win < 4; win++ {
		if win == 2 {
			deadlines := make([]time.Duration, cp.gB.Plan.NumQueries())
			for i := range deadlines {
				deadlines[i] = 100 * time.Millisecond
			}
			if _, err := r.s.Graft(cp.gB, cp.pacesB, deadlines); err != nil {
				t.Fatal(err)
			}
		}
		for len(r.s.Result().Windows) < win+1 {
			if _, err := r.s.Tick(); err != nil {
				t.Fatal(err)
			}
		}
	}
	return r.render(t)
}

var sinkScenarios = []struct {
	name string
	run  func(t *testing.T, workers int) map[string][]byte
}{
	{"degrade_recal", degradeRecalScenario},
	{"graft_idle", graftIdleScenario},
}

// pinKnobs fixes the physical knobs whose counters the sinks report (the
// reuse skip count, shared arrangement attaches) at their defaults, so the
// goldens hold under the knob-twin CI runs too.
func pinKnobs(t *testing.T) {
	t.Setenv("ISHARE_REUSE", "1")
	t.Setenv("ISHARE_SHARE_ARRANGEMENTS", "1")
}

// TestGoldenSinks pins every sink's rendering — event JSONL, Chrome trace,
// metrics snapshot JSON, Prometheus text and the last published status —
// for two seeded virtual-clock runs that between them degrade, recalibrate,
// graft and skip clean-cone firings. Each rendering must be byte-identical
// at Workers=1 and Workers=4 and match testdata/sinks/. Regenerate with:
//
//	go test ./internal/sched -run TestGoldenSinks -update
func TestGoldenSinks(t *testing.T) {
	pinKnobs(t)
	for _, sc := range sinkScenarios {
		one := sc.run(t, 1)
		four := sc.run(t, 4)
		for _, suffix := range sinkFiles {
			if !bytes.Equal(one[suffix], four[suffix]) {
				t.Errorf("%s: %s differs between workers=1 and workers=4 at %s",
					sc.name, suffix, firstDiffLine(one[suffix], four[suffix]))
			}
			golden := filepath.Join("testdata", "sinks", sc.name+"."+suffix)
			if *updateGolden {
				if err := os.MkdirAll(filepath.Dir(golden), 0o755); err != nil {
					t.Fatal(err)
				}
				if err := os.WriteFile(golden, one[suffix], 0o644); err != nil {
					t.Fatal(err)
				}
				continue
			}
			want, err := os.ReadFile(golden)
			if err != nil {
				t.Fatalf("missing golden file (regenerate with -update): %v", err)
			}
			if !bytes.Equal(one[suffix], want) {
				t.Errorf("%s diverged from its golden file at %s (regenerate with -update if the change is intended)",
					golden, firstDiffLine(one[suffix], want))
			}
		}
	}
}

// firstDiffLine locates the first line at which got and want differ.
func firstDiffLine(got, want []byte) string {
	g, w := strings.Split(string(got), "\n"), strings.Split(string(want), "\n")
	for i := 0; i < len(g) && i < len(w); i++ {
		if g[i] != w[i] {
			return fmt.Sprintf("line %d:\n got %s\nwant %s", i+1, g[i], w[i])
		}
	}
	return fmt.Sprintf("the end: %d lines vs %d", len(g), len(w))
}

// TestGoldenLogsCoverKnownTypes: the golden event logs together carry every
// event type the schema registers, so a type nothing emits cannot sit in
// eventlog.KnownTypes, and every emitter's rendering is pinned somewhere.
func TestGoldenLogsCoverKnownTypes(t *testing.T) {
	logs, err := filepath.Glob(filepath.Join("testdata", "sinks", "*.events.jsonl"))
	if err != nil {
		t.Fatal(err)
	}
	logs = append(logs, filepath.Join("testdata", "golden_events.jsonl"))
	seen := map[string]bool{}
	for _, path := range logs {
		b, err := os.ReadFile(path)
		if err != nil {
			t.Fatal(err)
		}
		_, byType, err := eventlog.Validate(bytes.NewReader(b))
		if err != nil {
			t.Fatalf("%s: %v", path, err)
		}
		for typ := range byType {
			seen[typ] = true
		}
	}
	var missing []string
	for typ := range eventlog.KnownTypes {
		if !seen[typ] {
			missing = append(missing, typ)
		}
	}
	sort.Strings(missing)
	if len(missing) > 0 {
		t.Errorf("no golden event log carries %s", strings.Join(missing, ", "))
	}
}
