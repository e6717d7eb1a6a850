package main

import (
	"fmt"
	"io"
	"runtime"
	"strconv"
	"time"

	"ishare/internal/cost"
	"ishare/internal/eventlog"
	"ishare/internal/exec"
	"ishare/internal/metrics"
	"ishare/internal/mqo"
	"ishare/internal/profile"
	"ishare/internal/sched"
)

// schedPlan is a plan ready to serve: graph, paces, the cost model's
// per-subplan work per window (the profile's baseline), the modeled work
// rate and every query's deadline on the virtual clock.
type schedPlan struct {
	graph     *mqo.Graph
	paces     []int
	modeled   []float64
	workRate  float64
	deadlines []time.Duration
}

// clockModel derives the clock side of a plan from its cost model: the work
// rate makes the planned work of one window fill half of it, and deadlines
// come from planDeadlines.
func clockModel(m *cost.Model, g *mqo.Graph, paces []int, cons []float64) (schedPlan, error) {
	ev, err := m.Evaluate(paces)
	if err != nil {
		return schedPlan{}, err
	}
	rate := 2 * ev.Total / windowLen.Seconds()
	return schedPlan{graph: g, paces: paces, modeled: ev.SubTotal, workRate: rate, deadlines: planDeadlines(ev, g, cons, rate)}, nil
}

// deadlineHeadroom is the slack a deadline leaves over the modeled time.
// The plan is made over a cold window-scale model, while operator state
// grows over the stream and raises the real work of a window; four times
// the modeled time lets the deployment absorb that growth, so degradation
// acts on the early overloads and then leaves a sustainable pace vector in
// force.
const deadlineHeadroom = 4

// planDeadlines gives each query slot its latency goal on the virtual clock.
// The trigger-point group runs every subplan's final firing one after
// another in subplan order, so a query completes when the last of its
// subplans does, after the final work of every subplan before it. A query's
// deadline is its final-work constraint (the paper's goal: a fraction of its
// batch final work) or, where the plan's cost model says the group cannot
// finish it that early, that modeled completion — either times
// deadlineHeadroom, at the work rate. Inactive slots get 0.
func planDeadlines(ev cost.Eval, g *mqo.Graph, cons []float64, rate float64) []time.Duration {
	prefix := make([]float64, len(ev.SubFinal)+1)
	for i, w := range ev.SubFinal {
		prefix[i+1] = prefix[i] + w
	}
	out := make([]time.Duration, len(cons))
	for q, c := range cons {
		last := -1
		for _, s := range g.QuerySubplans(q) {
			last = max(last, s.ID)
		}
		if last < 0 {
			continue
		}
		goal := max(c, prefix[last+1])
		out[q] = time.Duration(deadlineHeadroom * goal / rate * float64(time.Second))
	}
	return out
}

// fixedRel assigns the paper's relative constraints {1, 0.5, 0.2, 0.1} to n
// queries in turn. Stream and churn keep constraints fixed, so their plans
// do not depend on the seed; the seed varies the data.
func fixedRel(n int) []float64 {
	rel := make([]float64, n)
	for i := range rel {
		rel[i] = relChoices[i%len(relChoices)]
	}
	return rel
}

// serving is one scheduler run as a monitored deployment serves it: a
// virtual clock with a modeled work rate, degradation on, and (unless the
// pass is bare) the profile, event log and status board attached.
type serving struct {
	s      *sched.Scheduler
	prof   *profile.Profiler
	status *sched.StatusBoard
	rec    *recorder
	p      *passOut

	rows, windows, ticks int
	tick                 time.Duration
	busyNS, batches      int64
	met, miss            int
}

func newServing(kind passKind, rec *recorder, p *passOut, sp schedPlan, data exec.DeltaDataset, windows int) (*serving, error) {
	d := &serving{rec: rec, p: p}
	sc := sched.Config{
		Window:    windowLen,
		Windows:   windows,
		Clock:     sched.NewVirtualClock(time.Unix(0, 0)),
		WorkRate:  sp.workRate,
		Deadlines: sp.deadlines,
		Workers:   workers,
		Metrics:   metrics.NewRegistry(),
	}
	if kind != bare {
		d.prof = profile.New(profile.Config{Subplans: len(sp.graph.Subplans), Modeled: sp.modeled})
		d.status = &sched.StatusBoard{}
		sc.Profile = d.prof
		sc.Events = eventlog.New(io.Discard, 0)
		sc.Status = d.status
	}
	for _, rows := range data {
		d.rows += len(rows)
	}
	s, err := sched.New(sp.graph, sp.paces, sched.Slices{Data: data, N: windows}, sc)
	if err != nil {
		return nil, err
	}
	d.s = s
	return d, nil
}

// window runs Ticks until the scheduler closes window win, then settles the
// window's deadlines for the active query slots. The closing Tick is the
// trigger-point firing group: the time from the trigger until every query's
// result is final.
func (d *serving) window(win, req, root int, active func(slot int) bool) error {
	var trigger time.Duration
	for len(d.s.Result().Windows) == win {
		id := d.rec.begin(req, root, "sched", "Scheduler.Tick")
		t := threadCPU()
		more, err := d.s.Tick()
		dt := threadCPU() - t
		d.rec.end(id)
		d.tick += dt
		d.ticks++
		if err != nil {
			return fmt.Errorf("window %d: %w", win, err)
		}
		if len(d.s.Result().Windows) > win {
			trigger = dt
			break
		}
		if !more {
			return fmt.Errorf("run ended before window %d closed", win)
		}
	}
	d.windows++
	d.p.attempted++
	d.p.samples["trigger_ms"] = append(d.p.samples["trigger_ms"], float64(trigger)/1e6)
	ws := d.s.Result().Windows[win]
	for q, slack := range ws.QuerySlack {
		if !active(q) {
			continue
		}
		if slack < 0 {
			d.miss++
		} else {
			d.met++
		}
	}
	if d.rec != nil && d.prof != nil {
		// The profile holds each subplan's measured firing time per
		// window; reading it copies its ring, so only traced passes do.
		for _, smp := range d.prof.Samples() {
			if smp.Window == win {
				d.busyNS += smp.WallNS
				d.batches += smp.Batches
			}
		}
	}
	return nil
}

// finish records the pass's end-to-end numbers — throughput over Tick
// time, executed work, deadline misses and the live heap with the run's
// state still alive — and, on traced passes, the exec and sched layer
// metrics.
func (d *serving) finish() {
	p, res := d.p, d.s.Result()
	p.busy = d.tick
	p.ops = d.windows
	missPct := 100 * float64(d.miss) / float64(d.met+d.miss)
	p.scalars["throughput"] = float64(d.rows) / d.tick.Seconds()
	p.scalars["work"] = float64(res.TotalWork)
	p.scalars["miss_pct"] = missPct
	p.scalars["heap_mb"] = liveHeapMB()
	runtime.KeepAlive(d.s)
	p.exact["work_units"] = strconv.FormatInt(res.TotalWork, 10)
	p.exact["miss_pct"] = strconv.FormatFloat(missPct, 'g', -1, 64)
	p.exact["degradations"] = strconv.Itoa(len(res.Decisions))
	p.exact["final_paces"] = fmt.Sprint(d.s.Paces())
	if d.rec == nil {
		return
	}
	snap := d.s.Snapshot()
	firings := float64(snap.Counters["sched.executions"])
	built := float64(snap.Counters["exec.arrangements.built"])
	shared := float64(snap.Counters["exec.arrangements.shared_attaches"])
	p.layers["exec.busy_ms"] = float64(d.busyNS) / 1e6 / float64(d.windows)
	p.layers["exec.firings"] = firings
	p.layers["exec.batches"] = float64(d.batches)
	p.layers["exec.work"] = float64(res.TotalWork)
	p.layers["exec.reuse_skip_ratio"] = ratio(float64(snap.Counters["exec.reuse.skipped"]), firings)
	p.layers["exec.arr_share_ratio"] = ratio(shared, built+shared)
	if st, ok := d.status.Current(); ok {
		p.layers["exec.arr_entries"] = float64(st.Arrangements.Entries)
	}
	p.layers["sched.ticks"] = float64(d.ticks)
}
