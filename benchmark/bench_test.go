package main

import (
	"encoding/json"
	"fmt"
	"math/rand"
	"os"
	"strings"
	"testing"

	"ishare/internal/exec"
	"ishare/internal/oracle"
	"ishare/internal/plan"
	"ishare/internal/tpch"
	"ishare/internal/value"
)

// tiny shrinks every workload far enough for the nested-loop oracle, while
// keeping the 100 samples latency_ms.p90 needs.
func tiny(workload string) config {
	cfg := fullScale()
	cfg.Workload = workload
	cfg.Seed = 4
	cfg.Seconds = 1e-3
	cfg.Setups = 1
	cfg.MaxPace = 4
	cfg.PlanSF = 0.004
	cfg.Requests = 100
	cfg.MinQ, cfg.MaxQ = 2, 3
	cfg.StreamSF = 0.02
	cfg.StreamWindows = 100
	cfg.ChurnSF = 0.02
	cfg.ChurnWindows = 101
	cfg.ChurnMin, cfg.ChurnMax = 4, 8
	cfg.ChurnMaxPace = 4
	return cfg
}

var workloads = []string{"plan-mix", "stream", "churn"}

// namedFor lists the end-to-end metrics each workload must print at tiny
// scale, with their units. A p99 needs 1000 samples, so it is absent here.
var namedFor = map[string]map[string]string{
	"plan-mix": {"plan_ms.p50": "ms", "plan_ms.p90": "ms", "plan_work": "units", "setup_s": "s", "fail_pct": "%"},
	"stream": {"rows_per_s": "1/s", "trigger_ms.p50": "ms", "work_units": "units", "miss_pct": "%",
		"heap_mb": "MB", "setup_s": "s", "fail_pct": "%"},
	"churn": {"rows_per_s": "1/s", "trigger_ms.p50": "ms", "replan_ms.p50": "ms", "replan_ms.p90": "ms",
		"work_units": "units", "miss_pct": "%", "heap_mb": "MB", "setup_s": "s", "fail_pct": "%"},
}

func TestWorkloadsReportEveryMetric(t *testing.T) {
	for _, name := range workloads {
		for _, traced := range []bool{false, true} {
			t.Run(fmt.Sprintf("%s/trace=%v", name, traced), func(t *testing.T) {
				cfg := tiny(name)
				cfg.Trace = traced
				out, err := run(cfg)
				if err != nil {
					t.Fatal(err)
				}
				if !out.correct || out.failed != 0 || out.attempted == 0 {
					t.Fatalf("correct=%v attempted=%d failed=%d: %v", out.correct, out.attempted, out.failed, out.problems)
				}
				printed := map[string]string{}
				for _, line := range out.lines {
					f := strings.Fields(line)
					if len(f) >= 4 && f[0] == "metric" {
						printed[f[1]] = f[3]
					}
				}
				for m, unit := range namedFor[name] {
					if printed[m] != unit {
						t.Errorf("metric %s printed with unit %q, want %q", m, printed[m], unit)
					}
				}
				if _, ok := printed["trigger_ms.p99"]; ok {
					t.Error("trigger_ms.p99 named with fewer than 1000 samples")
				}

				line, err := resultJSON(cfg, out)
				if err != nil {
					t.Fatal(err)
				}
				var res struct {
					Correct           bool
					Attempted, Failed int
					Metrics           map[string]struct {
						Value float64
						Unit  string
					}
				}
				if err := json.Unmarshal([]byte(line), &res); err != nil {
					t.Fatal(err)
				}
				defs := endToEnd
				if traced {
					defs = perLayer
				}
				if len(res.Metrics) != len(defs) {
					t.Errorf("%d metrics, want %d", len(res.Metrics), len(defs))
				}
				for _, d := range defs {
					m, ok := res.Metrics[d.name]
					if !ok || m.Unit != d.unit {
						t.Errorf("metric %s: %+v, want unit %s", d.name, m, d.unit)
					}
					if !traced && m.Value <= 0 {
						t.Errorf("end-to-end metric %s is %v", d.name, m.Value)
					}
				}
			})
		}
	}
}

// TestTracedSplit checks that each workload's traced time lands where the
// workload is meant to put it.
func TestTracedSplit(t *testing.T) {
	cfg := tiny("plan-mix")
	cfg.Trace = true
	out, err := run(cfg)
	if err != nil {
		t.Fatal(err)
	}
	m := out.metrics
	if m["pace.self_ms"]+m["decompose.self_ms"] <= 0 || m["cost.sims"] <= 0 || m["pace.evals"] <= 0 {
		t.Errorf("plan-mix spent no time in the optimizer: %v", m)
	}
	for _, k := range []string{"exec.busy_ms", "exec.firings", "exec.self_ms", "sched.self_ms", "sched.ticks"} {
		if m[k] != 0 {
			t.Errorf("plan-mix %s = %v, want 0", k, m[k])
		}
	}

	cfg = tiny("stream")
	cfg.Trace = true
	if out, err = run(cfg); err != nil {
		t.Fatal(err)
	}
	m = out.metrics
	if m["exec.busy_ms"] <= 0 || m["exec.firings"] <= 0 || m["sched.ticks"] <= 0 {
		t.Errorf("stream did no exec or sched work: %v", m)
	}
	for _, k := range []string{"cost.sims", "pace.evals", "pace.self_ms", "decompose.self_ms", "opt.self_ms"} {
		if m[k] != 0 {
			t.Errorf("stream %s = %v, want 0", k, m[k])
		}
	}
}

// oracleRows evaluates a query with the naive nested-loop evaluator.
func oracleRows(q plan.Query, data exec.DeltaDataset) []value.Row {
	return oracle.Eval(q.Root, oracle.FinalTables(data), nil)
}

func TestStreamMatchesOracle(t *testing.T) {
	w := &stream{cfg: tiny("stream")}
	if err := w.setup(); err != nil {
		t.Fatal(err)
	}
	p, err := w.pass(plain, nil)
	if err != nil {
		t.Fatal(err)
	}
	for q, bq := range w.queries {
		if ok, why := sameRows(p.results[q], oracleRows(bq, w.data)); !ok {
			t.Errorf("%s: %s", bq.Name, why)
		}
	}
}

func TestChurnMatchesOracle(t *testing.T) {
	w := &churn{cfg: tiny("churn")}
	if err := w.setup(); err != nil {
		t.Fatal(err)
	}
	p, err := w.pass(plain, nil)
	if err != nil {
		t.Fatal(err)
	}
	if p.failed != 0 {
		t.Fatal(p.problems)
	}
	slots := w.slotsAfter(w.ops)
	if got := p.exact["slots"]; got != fmt.Sprint(slots) {
		t.Fatalf("slots %s, replayed assignment %v", got, slots)
	}
	k := 0
	for _, q := range slots {
		if q < 0 {
			continue
		}
		if ok, why := sameRows(p.results[k], oracleRows(w.queries[q], w.data)); !ok {
			t.Errorf("%s: %s", w.queries[q].Name, why)
		}
		k++
	}
}

// TestChurnCatchesLooseGraft plants the classic online-admission bug —
// grafting an admitted query onto loosely matching state without catching
// it up — and requires the run's own check to fail.
func TestChurnCatchesLooseGraft(t *testing.T) {
	exec.DebugGraftLooseMatch = true
	defer func() { exec.DebugGraftLooseMatch = false }()
	out, err := run(tiny("churn"))
	if err != nil {
		t.Fatal(err)
	}
	if out.correct || out.failed == 0 {
		t.Fatal("the loose graft went unnoticed")
	}
}

// TestPlanMixPlansMatchOracle executes a few of plan-mix's chosen plans at
// their paces and checks the results against the oracle.
func TestPlanMixPlansMatchOracle(t *testing.T) {
	w := &planMix{cfg: tiny("plan-mix")}
	if err := w.setup(); err != nil {
		t.Fatal(err)
	}
	data := tpch.GenerateWithUpdates(w.cfg.PlanSF, w.cfg.Seed, updateFrac)
	for i, r := range w.requests[:5] {
		planned, err := w.plan(r)
		if err != nil {
			t.Fatal(err)
		}
		bound, err := tpch.Bind(r.queries, w.cat, false)
		if err != nil {
			t.Fatal(err)
		}
		job := planned.Jobs[0]
		runner, err := exec.NewDeltaRunner(job.Graph, data)
		if err != nil {
			t.Fatal(err)
		}
		if _, err := runner.Run(job.Paces); err != nil {
			t.Fatal(err)
		}
		for local, global := range job.QueryIDs {
			if ok, why := sameRows(runner.Results(local), oracleRows(bound[global], data)); !ok {
				t.Errorf("request %d %s: %s", i, bound[global].Name, why)
			}
		}
	}
}

// TestExactValuesRepeat runs each workload twice from separate set-ups of
// one seed: every exact value must repeat to the digit.
func TestExactValuesRepeat(t *testing.T) {
	for _, name := range workloads {
		t.Run(name, func(t *testing.T) {
			var passes []*passOut
			for i := 0; i < 2; i++ {
				w, err := newWorkload(tiny(name))
				if err != nil {
					t.Fatal(err)
				}
				if err := w.setup(); err != nil {
					t.Fatal(err)
				}
				p, err := w.pass(traced, newRecorder())
				if err != nil {
					t.Fatal(err)
				}
				passes = append(passes, p)
			}
			if len(passes[0].exact) != len(passes[1].exact) {
				t.Fatalf("exact values %v vs %v", passes[0].exact, passes[1].exact)
			}
			if _, diffs := exactValues(passes); len(diffs) > 0 {
				t.Error(diffs)
			}
		})
	}
}

// TestExactValuesCheckedAcrossTracedPasses plants a traced pass whose
// cost.sims differs from an earlier traced pass's, with plain passes that
// record no cost.sims before and between them: the check must catch it.
func TestExactValuesCheckedAcrossTracedPasses(t *testing.T) {
	pass := func(kind passKind, exact map[string]string) *passOut {
		p := newPassOut(kind)
		p.exact = exact
		return p
	}
	passes := []*passOut{
		pass(plain, map[string]string{"plan_work": "7"}),
		pass(traced, map[string]string{"plan_work": "7", "cost.sims": "10", "pace.evals": "3"}),
		pass(plain, map[string]string{"plan_work": "7"}),
		pass(traced, map[string]string{"plan_work": "7", "cost.sims": "11", "pace.evals": "3"}),
	}
	exact, diffs := exactValues(passes)
	if len(diffs) != 1 || !strings.Contains(diffs[0], "pass 3 (traced)") || !strings.Contains(diffs[0], "cost.sims: 10 vs 11") {
		t.Fatalf("diffs %q, want one naming pass 3's cost.sims", diffs)
	}
	if exact["cost.sims"] != "10" || exact["pace.evals"] != "3" {
		t.Fatalf("merged exact values %v", exact)
	}
	passes[3].exact["cost.sims"] = "10"
	if _, diffs := exactValues(passes); len(diffs) != 0 {
		t.Fatalf("diffs %q for repeating values", diffs)
	}
}

func TestTracedSpansWellFormed(t *testing.T) {
	for _, name := range workloads {
		t.Run(name, func(t *testing.T) {
			w, err := newWorkload(tiny(name))
			if err != nil {
				t.Fatal(err)
			}
			if err := w.setup(); err != nil {
				t.Fatal(err)
			}
			rec := newRecorder()
			if _, err := w.pass(traced, rec); err != nil {
				t.Fatal(err)
			}
			if len(rec.spans) == 0 {
				t.Fatal("no spans")
			}
			if err := rec.check(); err != nil {
				t.Fatal(err)
			}
			for i, ns := range rec.selfNS() {
				if ns < 0 {
					t.Errorf("span %+v has self time %d", rec.spans[i], ns)
				}
			}
			path, err := rec.write(t.TempDir(), "spans.jsonl")
			if err != nil {
				t.Fatal(err)
			}
			b, err := os.ReadFile(path)
			if err != nil {
				t.Fatal(err)
			}
			if n := strings.Count(string(b), "\n"); n != len(rec.spans) {
				t.Errorf("wrote %d lines for %d spans", n, len(rec.spans))
			}
		})
	}
}

func TestSpanChecksAndSelfTime(t *testing.T) {
	rec := &recorder{spans: []span{
		{ID: 1, Req: 1, Name: "root", Layer: "bench", Start: 0, End: 100},
		{ID: 2, Parent: 1, Req: 1, Name: "a", Layer: "plan", Start: 10, End: 30},
		{ID: 3, Parent: 1, Req: 1, Name: "b", Layer: "pace", Start: 20, End: 50},
	}}
	if err := rec.check(); err != nil {
		t.Fatal(err)
	}
	if got := rec.selfNS(); got[0] != 60 || got[1] != 20 || got[2] != 30 {
		t.Errorf("self times %v, want [60 20 30]", got)
	}
	bad := *rec
	bad.spans = append([]span(nil), rec.spans...)
	bad.spans[2].Req = 2
	if bad.check() == nil {
		t.Error("a parent in another request passed the check")
	}
	bad.spans[2].Req = 1
	bad.spans[2].End = 150
	if bad.check() == nil {
		t.Error("a child outside its parent passed the check")
	}
}

func TestKnobs(t *testing.T) {
	if _, err := checkKnobs(nil); err != nil {
		t.Fatalf("default environment refused: %v", err)
	}
	t.Setenv("ISHARE_BATCH", "1024")
	if _, err := checkKnobs(os.Environ()); err != nil {
		t.Errorf("ISHARE_BATCH at its default refused: %v", err)
	}
	t.Setenv("ISHARE_REUSE", "0")
	if _, err := checkKnobs(os.Environ()); err == nil {
		t.Error("ISHARE_REUSE=0 accepted")
	}
	t.Setenv("ISHARE_REUSE", "")
	if _, err := checkKnobs([]string{"ISHARE_TYPO=1"}); err == nil {
		t.Error("an unknown ISHARE_ knob accepted")
	}
}

// TestBenchmarkJSON keeps BENCHMARK.json in step with the metric tables.
func TestBenchmarkJSON(t *testing.T) {
	b, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	var doc struct {
		Workloads []struct{ Name string }
		EndToEnd  []struct {
			Name, Unit, Better string
			Bound              float64
		} `json:"end_to_end"`
		PerLayer []struct{ Name, Unit, Better string } `json:"per_layer"`
	}
	if err := json.Unmarshal(b, &doc); err != nil {
		t.Fatal(err)
	}
	var names []string
	for _, w := range doc.Workloads {
		names = append(names, w.Name)
	}
	if fmt.Sprint(names) != fmt.Sprint(workloads) {
		t.Errorf("workloads %v, want %v", names, workloads)
	}
	if len(doc.EndToEnd) != len(endToEnd) || len(doc.PerLayer) != len(perLayer) {
		t.Fatalf("%d/%d metrics, want %d/%d", len(doc.EndToEnd), len(doc.PerLayer), len(endToEnd), len(perLayer))
	}
	for i, m := range doc.EndToEnd {
		if d := endToEnd[i]; m.Name != d.name || m.Unit != d.unit || m.Better != d.better || m.Bound <= 0 || m.Bound > 0.25 {
			t.Errorf("end_to_end %d: %+v, want %+v", i, m, d)
		}
	}
	for i, m := range doc.PerLayer {
		if d := perLayer[i]; m.Name != d.name || m.Unit != d.unit || m.Better != d.better {
			t.Errorf("per_layer %d: %+v, want %+v", i, m, d)
		}
	}
}

func TestDrawSubsets(t *testing.T) {
	subsets := drawSubsets(rand.New(rand.NewSource(1)), 22, 210, 4, 10)
	if len(subsets) != 210 {
		t.Fatalf("%d subsets, want 210", len(subsets))
	}
	count := map[[2]int]int{} // (size, query) → appearances
	sizes := map[int]int{}
	for _, s := range subsets {
		sizes[len(s)]++
		for i, q := range s {
			if i > 0 && s[i-1] >= q {
				t.Fatalf("subset %v not sorted and distinct", s)
			}
			count[[2]int{len(s), q}]++
		}
	}
	for k := 4; k <= 10; k++ {
		if sizes[k] != 30 {
			t.Errorf("%d subsets of size %d, want 30", sizes[k], k)
		}
		want := float64(30*k) / 22
		for q := 0; q < 22; q++ {
			if n := float64(count[[2]int{k, q}]); n < want-2 || n > want+2 {
				t.Errorf("query %d drawn %v times at size %d, want about %.1f", q, n, k, want)
			}
		}
	}
}

func TestChurnScheduleStaysInRange(t *testing.T) {
	initial, ops := churnSchedule(rand.New(rand.NewSource(1)), 22, 500, 4, 12)
	active := map[int]bool{}
	for _, q := range initial {
		active[q] = true
	}
	for i, op := range ops {
		if op.admit == active[op.query] {
			t.Fatalf("op %d %+v does not fit the active set", i, op)
		}
		active[op.query] = op.admit
		if n := len(activeKeys(active)); n < 4 || n > 12 {
			t.Fatalf("op %d leaves %d active queries", i, n)
		}
	}
}

func activeKeys(m map[int]bool) []int {
	var out []int
	for q, on := range m {
		if on {
			out = append(out, q)
		}
	}
	return out
}

func TestPercentiles(t *testing.T) {
	xs := []float64{4, 1, 3, 2, 5}
	if got := median(xs); got != 3 {
		t.Errorf("median %v", got)
	}
	if got := percentile(xs, 0.9); got != 4.6 {
		t.Errorf("p90 %v", got)
	}
	if tailOK(99, 90) || !tailOK(100, 90) || tailOK(999, 99) || !tailOK(1000, 99) {
		t.Error("tailOK misjudges the sample counts")
	}
}
