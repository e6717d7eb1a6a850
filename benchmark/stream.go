package main

import (
	"fmt"

	"ishare/internal/exec"
	"ishare/internal/opt"
	"ishare/internal/plan"
	"ishare/internal/tpch"
)

// stream plans the ten overlapping TPC-H queries once, then serves them over
// a long stream of trigger windows with about a tenth of the fact rows
// updated. The executor and the scheduler do the work.
type stream struct {
	cfg     config
	queries []plan.Query
	data    exec.DeltaDataset
	sched   schedPlan
}

func (w *stream) setup() error {
	// The catalog describes one window's data, so the plan, its cost model
	// and the deadlines all speak of a window.
	cat, err := tpch.NewCatalog(w.cfg.StreamSF / float64(w.cfg.StreamWindows))
	if err != nil {
		return err
	}
	qs, err := tpch.ByName(tpch.OverlappingTen...)
	if err != nil {
		return err
	}
	bound, err := tpch.Bind(qs, cat, false)
	if err != nil {
		return err
	}
	cons, err := opt.AbsoluteConstraints(bound, fixedRel(len(bound)))
	if err != nil {
		return err
	}
	planned, err := opt.Plan(opt.IShare, opt.Request{Queries: bound, Constraints: cons, MaxPace: w.cfg.MaxPace, Workers: workers})
	if err != nil {
		return err
	}
	job := planned.Jobs[0]
	sp, err := clockModel(job.Model, job.Graph, job.Paces, cons)
	if err != nil {
		return err
	}
	w.queries = bound
	w.sched = sp
	w.data = tpch.GenerateWithUpdates(w.cfg.StreamSF, w.cfg.Seed, updateFrac)
	return nil
}

func (w *stream) pass(kind passKind, rec *recorder) (*passOut, error) {
	p := newPassOut(kind)
	p.latency = "trigger_ms"
	n := w.cfg.StreamWindows
	d, err := newServing(kind, rec, p, w.sched, w.data, n)
	if err != nil {
		return nil, err
	}
	all := func(int) bool { return true }
	for win := 0; win < n; win++ {
		root := rec.begin(win+1, 0, "bench", "window")
		err := d.window(win, win+1, root, all)
		rec.end(root)
		if err != nil {
			return nil, err
		}
	}
	dg := newDigest()
	for q := range w.queries {
		rows := d.s.Results(q)
		p.results = append(p.results, rows)
		dg.addRows(rows)
	}
	p.exact["results"] = dg.String()
	p.exact["plan_paces"] = fmt.Sprint(w.sched.paces)
	d.finish()
	return p, nil
}

func (w *stream) verify(p *passOut) error {
	want, err := reference(w.queries, w.data)
	if err != nil {
		return err
	}
	for q := range w.queries {
		p.attempted++
		if ok, why := sameRows(p.results[q], want[q]); !ok {
			p.fail("%s: %s", w.queries[q].Name, why)
		}
	}
	return nil
}

func (w *stream) traceKinds() []passKind { return []passKind{plain, traced, bare} }

func (w *stream) named(plains []*passOut, setupS float64) []namedMetric {
	out := []namedMetric{{name: "rows_per_s", value: medianScalar(plains, "throughput"), unit: "1/s"}}
	out = append(out, latencyMetrics("trigger_ms", pooled(plains, "trigger_ms"), 99)...)
	return append(out,
		namedMetric{name: "work_units", value: medianScalar(plains, "work"), unit: "units"},
		namedMetric{name: "miss_pct", value: medianScalar(plains, "miss_pct"), unit: "%"},
		namedMetric{name: "heap_mb", value: medianScalar(plains, "heap_mb"), unit: "MB"},
		namedMetric{name: "setup_s", value: setupS, unit: "s", n: w.cfg.Setups})
}
