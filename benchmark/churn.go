package main

import (
	"fmt"
	"math/rand"
	"sort"
	"strconv"
	"time"

	"ishare/internal/cost"
	"ishare/internal/exec"
	"ishare/internal/mqo"
	"ishare/internal/opt"
	"ishare/internal/plan"
	"ishare/internal/tpch"
)

// churn serves a live plan of ChurnMin..ChurnMax active TPC-H queries: at
// every window boundary one query is admitted or retired through opt.Live
// and grafted onto the running scheduler.
type churn struct {
	cfg     config
	queries []plan.Query // all 22, bound
	cons    []float64    // each query's final-work constraint
	initial []int        // the starting query set, sorted
	ops     []churnOp    // one per window boundary
	rate    float64      // modeled work rate, fixed by the initial plan
	data    exec.DeltaDataset
}

// churnOp admits or retires one query between two windows.
type churnOp struct {
	admit bool
	query int
}

// churnScheduleSeed seeds the admit/retire schedule. It is fixed rather than
// taken from --seed: which queries are live moves heap, throughput and replan
// latency by tens of percent, so a schedule drawn per seed would bury any
// change under the seeds' spread. --seed varies the data stream.
const churnScheduleSeed = 1

func (w *churn) setup() error {
	cat, err := tpch.NewCatalog(w.cfg.ChurnSF / float64(w.cfg.ChurnWindows))
	if err != nil {
		return err
	}
	bound, err := tpch.Bind(tpch.All(), cat, false)
	if err != nil {
		return err
	}
	cons, err := opt.AbsoluteConstraints(bound, fixedRel(len(bound)))
	if err != nil {
		return err
	}
	w.queries, w.cons = bound, cons
	rng := rand.New(rand.NewSource(churnScheduleSeed))
	w.initial, w.ops = churnSchedule(rng, len(bound), w.cfg.ChurnWindows-1, w.cfg.ChurnMin, w.cfg.ChurnMax)
	live, err := w.newLive()
	if err != nil {
		return err
	}
	sp, err := clockModel(live.Model, live.Graph, live.Paces, w.initialCons())
	if err != nil {
		return err
	}
	w.rate = sp.workRate
	w.data = tpch.GenerateWithUpdates(w.cfg.ChurnSF, w.cfg.Seed, updateFrac)
	return nil
}

// churnSchedule draws the starting set and n admit/retire steps. The number
// of active queries zig-zags between lo and hi, rising from the midpoint
// first. Admitted queries are dealt from shuffled decks, so every query is
// admitted about equally often, and a retirement takes the longest-active
// query. Picks come from slices, never from map order.
func churnSchedule(rng *rand.Rand, universe, n, lo, hi int) ([]int, []churnOp) {
	active := make([]bool, universe)
	var deck, queue []int // queue: active queries in admission order
	deal := func() int {
		for {
			if len(deck) == 0 {
				deck = rng.Perm(universe)
			}
			q := deck[0]
			deck = deck[1:]
			if !active[q] {
				active[q] = true
				queue = append(queue, q)
				return q
			}
		}
	}
	for len(queue) < (lo+hi)/2 {
		deal()
	}
	initial := append([]int(nil), queue...)
	sort.Ints(initial)
	ops := make([]churnOp, n)
	up := true
	for i := range ops {
		if len(queue) >= hi {
			up = false
		} else if len(queue) <= lo {
			up = true
		}
		if up {
			ops[i] = churnOp{admit: true, query: deal()}
			continue
		}
		q := queue[0]
		queue = queue[1:]
		active[q] = false
		ops[i] = churnOp{query: q}
	}
	return initial, ops
}

func (w *churn) initialCons() []float64 {
	out := make([]float64, len(w.initial))
	for i, q := range w.initial {
		out[i] = w.cons[q]
	}
	return out
}

func (w *churn) newLive() (*opt.Live, error) {
	qs := make([]plan.Query, len(w.initial))
	for i, q := range w.initial {
		qs[i] = w.queries[q]
	}
	return opt.NewLive(opt.Request{Queries: qs, Constraints: w.initialCons(), MaxPace: w.cfg.ChurnMaxPace, Workers: workers}, nil)
}

// slotsAfter returns the query serving each slot after ops (-1 for a free
// slot), by replaying the slot assignment opt.Live makes: an admission
// takes the lowest free slot.
func (w *churn) slotsAfter(ops []churnOp) []int {
	slots := append([]int(nil), w.initial...)
	for _, op := range ops {
		if !op.admit {
			for s, q := range slots {
				if q == op.query {
					slots[s] = -1
				}
			}
			continue
		}
		free := len(slots)
		for s, q := range slots {
			if q < 0 {
				free = s
				break
			}
		}
		if free == len(slots) {
			slots = append(slots, -1)
		}
		slots[free] = op.query
	}
	return slots
}

// deadlines derives every slot's deadline from the live plan at the run's
// work rate.
func (w *churn) deadlines(live *opt.Live, slots []int) ([]time.Duration, error) {
	ev, err := live.Model.Evaluate(live.Paces)
	if err != nil {
		return nil, err
	}
	cons := make([]float64, len(slots))
	for s, q := range slots {
		if q >= 0 {
			cons[s] = w.cons[q]
		}
	}
	return planDeadlines(ev, live.Graph, cons, w.rate), nil
}

func (w *churn) pass(kind passKind, rec *recorder) (*passOut, error) {
	p := newPassOut(kind)
	p.latency = "replan_ms"
	n := w.cfg.ChurnWindows
	live, err := w.newLive()
	if err != nil {
		return nil, err
	}
	slots := append([]int(nil), w.initial...)
	deadlines, err := w.deadlines(live, slots)
	if err != nil {
		return nil, err
	}
	sp := schedPlan{graph: live.Graph, paces: live.Paces, workRate: w.rate, deadlines: deadlines}
	d, err := newServing(kind, rec, p, sp, w.data, n)
	if err != nil {
		return nil, err
	}
	dg := newDigest()
	var l churnLayers
	active := func(s int) bool { return s < len(slots) && slots[s] >= 0 }
	for win := 0; win < n; win++ {
		req := win + 1
		root := rec.begin(req, 0, "bench", "window")
		if win > 0 {
			if err := w.replan(d, live, &slots, w.ops[win-1], req, root, dg, &l); err != nil {
				return nil, err
			}
		}
		err := d.window(win, req, root, active)
		rec.end(root)
		if err != nil {
			return nil, err
		}
		if rec != nil && win > 0 {
			if err := l.probe(live, w.queries, slots); err != nil {
				return nil, fmt.Errorf("window %d: %w", win, err)
			}
		}
	}
	for s, q := range slots {
		if q >= 0 {
			rows := d.s.Results(s)
			p.results = append(p.results, rows)
			dg.addRows(rows)
		}
	}
	p.exact["replan_paces_and_results"] = dg.String()
	p.exact["slots"] = fmt.Sprint(slots)
	p.exact["cost.sims"] = strconv.FormatInt(l.sims, 10)
	p.exact["pace.evals"] = strconv.FormatInt(l.evals, 10)
	d.finish()
	if rec != nil {
		l.report(p)
	}
	return p, nil
}

// replan admits or retires one query and grafts the new revision onto the
// scheduler. Its latency is the admit/retire request to the new plan
// serving: the Live call plus the graft.
func (w *churn) replan(d *serving, live *opt.Live, slots *[]int, op churnOp, req, root int, dg *digest, l *churnLayers) error {
	rec, p := d.rec, d.p
	p.attempted++
	start := threadCPU()
	var rep *opt.AdmitReport
	var err error
	var call int
	if op.admit {
		call = rec.begin(req, root, "opt", "Live.Admit")
		var slot int
		slot, rep, err = live.Admit(w.queries[op.query], w.cons[op.query])
		rec.end(call)
		if err == nil {
			for len(*slots) <= slot {
				*slots = append(*slots, -1)
			}
			(*slots)[slot] = op.query
		}
	} else {
		slot := -1
		for s, q := range *slots {
			if q == op.query {
				slot = s
			}
		}
		call = rec.begin(req, root, "opt", "Live.Retire")
		rep, err = live.Retire(slot)
		rec.end(call)
		if err == nil {
			(*slots)[slot] = -1
		}
	}
	optDone := threadCPU()
	if err != nil {
		p.fail("window %d: %v", req-1, err)
		return nil
	}
	l.count(live, rep)
	deadlines, err := w.deadlines(live, *slots)
	if err != nil {
		return fmt.Errorf("window %d: %w", req-1, err)
	}
	graft := rec.begin(req, root, "exec", "Scheduler.Graft")
	graftStart := threadCPU()
	gs, err := d.s.Graft(live.Graph, live.Paces, deadlines)
	end := threadCPU()
	rec.end(graft)
	if err != nil {
		return fmt.Errorf("window %d: graft: %w", req-1, err)
	}
	p.samples["replan_ms"] = append(p.samples["replan_ms"], float64(optDone-start+end-graftStart)/1e6)
	dg.add(rep.Paces)
	l.replayed += gs.Replayed
	if rec == nil {
		return nil
	}
	l.optNS += rec.spans[call-1].End - rec.spans[call-1].Start
	l.graftNS += rec.spans[graft-1].End - rec.spans[graft-1].Start
	return nil
}

func (w *churn) verify(p *passOut) error {
	var qs []plan.Query
	for _, q := range w.slotsAfter(w.ops) {
		if q >= 0 {
			qs = append(qs, w.queries[q])
		}
	}
	want, err := reference(qs, w.data)
	if err != nil {
		return err
	}
	if len(p.results) != len(qs) {
		p.attempted++
		p.fail("%d results for %d active queries", len(p.results), len(qs))
		return nil
	}
	for i, q := range qs {
		p.attempted++
		if ok, why := sameRows(p.results[i], want[i]); !ok {
			p.fail("%s: %s", q.Name, why)
		}
	}
	return nil
}

func (w *churn) traceKinds() []passKind { return []passKind{plain, traced, bare} }

func (w *churn) named(plains []*passOut, setupS float64) []namedMetric {
	out := []namedMetric{{name: "rows_per_s", value: medianScalar(plains, "throughput"), unit: "1/s"}}
	out = append(out, latencyMetrics("trigger_ms", pooled(plains, "trigger_ms"))...)
	out = append(out, latencyMetrics("replan_ms", pooled(plains, "replan_ms"), 90)...)
	return append(out,
		namedMetric{name: "work_units", value: medianScalar(plains, "work"), unit: "units"},
		namedMetric{name: "miss_pct", value: medianScalar(plains, "miss_pct"), unit: "%"},
		namedMetric{name: "heap_mb", value: medianScalar(plains, "heap_mb"), unit: "MB"},
		namedMetric{name: "setup_s", value: setupS, unit: "s", n: w.cfg.Setups})
}

// churnLayers accumulates a traced churn pass's per-layer numbers.
type churnLayers struct {
	replans                  int
	optNS, graftNS, buildNS  int64
	simNS, probeSims         int64
	probeTime                time.Duration
	sims, evals, seeded      int64
	lookups, hits            int64
	matched, fresh, replayed int
	subplans, sharedOps      int
}

// count folds one replan's admission report and the new model's memo
// traffic in.
func (l *churnLayers) count(live *opt.Live, rep *opt.AdmitReport) {
	l.replans++
	l.sims += rep.Sims
	l.evals += rep.Evals
	l.seeded += int64(rep.MemoSeeded)
	l.matched += rep.Matched
	l.fresh += rep.Fresh
	l.lookups += live.Model.Lookups
	l.hits += live.Model.Hits
	l.subplans += len(live.Graph.Subplans)
	l.sharedOps += live.Graph.Plan.SharedOpCount()
}

// probe times two calls after a traced window, outside its spans: a
// shared-plan build of the query set the window's replan left (opt.Live
// builds one inside Admit and Retire, out of reach) and a cold Evaluate of
// the new plan.
func (l *churnLayers) probe(live *opt.Live, queries []plan.Query, slots []int) error {
	probe := time.Now()
	defer func() { l.probeTime += time.Since(probe) }()
	qs := make([]plan.Query, len(slots))
	for s, q := range slots {
		if q >= 0 {
			qs[s] = queries[q]
		}
	}
	t := time.Now()
	sp, err := mqo.Build(qs)
	if err == nil {
		_, err = mqo.Extract(sp)
	}
	if err != nil {
		return fmt.Errorf("build probe: %w", err)
	}
	l.buildNS += time.Since(t).Nanoseconds()
	m := cost.NewModel(live.Graph)
	t = time.Now()
	if _, err := m.Evaluate(live.Paces); err != nil {
		return fmt.Errorf("cold evaluate: %w", err)
	}
	l.simNS += time.Since(t).Nanoseconds()
	l.probeSims += m.Sims
	return nil
}

func (l *churnLayers) report(p *passOut) {
	p.probe = l.probeTime
	per := func(ns int64) float64 { return float64(ns) / 1e6 / float64(l.replans) }
	p.layers["mqo.build_ms"] = per(l.buildNS)
	p.layers["mqo.subplans"] = float64(l.subplans)
	p.layers["mqo.shared_ops"] = float64(l.sharedOps)
	p.layers["cost.sims"] = float64(l.sims)
	p.layers["cost.memo_hit_ratio"] = ratio(float64(l.hits), float64(l.lookups))
	p.layers["cost.sim_us"] = ratio(float64(l.simNS)/1e3, float64(l.probeSims))
	p.layers["pace.evals"] = float64(l.evals)
	p.layers["opt.replan_ms"] = per(l.optNS)
	p.layers["opt.replan_sims"] = float64(l.sims)
	p.layers["opt.memo_seeded"] = float64(l.seeded)
	p.layers["opt.matched_ratio"] = ratio(float64(l.matched), float64(l.matched+l.fresh))
	p.layers["exec.graft_ms"] = per(l.graftNS)
	p.layers["exec.replayed"] = float64(l.replayed)
}
