package main

import (
	"fmt"
	"math/rand"
	"runtime"
	"sort"
	"strconv"
	"time"

	"ishare/internal/catalog"
	"ishare/internal/cost"
	"ishare/internal/opt"
	"ishare/internal/tpch"
	"ishare/internal/trace"
)

// relChoices are the paper's relative latency constraints (§5).
var relChoices = []float64{1.0, 0.5, 0.2, 0.1}

// planMix plans seeded random subsets of the 22 TPC-H queries with iShare.
// Nothing executes: the optimizer layers do all the work.
type planMix struct {
	cfg      config
	cat      *catalog.Catalog
	requests []planRequest
}

// planRequest is one planning request: queries bound from SQL, each with
// an absolute final-work constraint.
type planRequest struct {
	queries []tpch.Query
	cons    []float64
}

func (w *planMix) setup() error {
	cat, err := tpch.NewCatalog(w.cfg.PlanSF)
	if err != nil {
		return err
	}
	all := tpch.All()
	bound, err := tpch.Bind(all, cat, false)
	if err != nil {
		return err
	}
	ones := make([]float64, len(all))
	for i := range ones {
		ones[i] = 1
	}
	batch, err := opt.AbsoluteConstraints(bound, ones)
	if err != nil {
		return err
	}
	rng := rand.New(rand.NewSource(w.cfg.Seed))
	picks := drawSubsets(rng, len(all), w.cfg.Requests, w.cfg.MinQ, w.cfg.MaxQ)
	w.cat = cat
	w.requests = make([]planRequest, len(picks))
	for i, pick := range picks {
		r := &w.requests[i]
		for _, q := range pick {
			r.queries = append(r.queries, all[q])
			r.cons = append(r.cons, relChoices[rng.Intn(len(relChoices))]*batch[q])
		}
	}
	// A fixed request planned before timing starts runs every lazy
	// initialization the measured requests would otherwise pay for; it is the
	// same for every seed, so set-up time does not depend on the seed.
	warm := planRequest{queries: all[:7], cons: batch[:7]}
	_, err = w.plan(warm)
	return err
}

// drawSubsets returns n sorted subsets of 0..universe-1 in a shuffled
// order. Sizes run evenly over minQ..maxQ, and the subsets of each size are
// dealt from that size's own shuffled decks, so every query appears about
// equally often at every size whatever the seed: a seed that put the costly
// queries into the mid-sized sets would move the median latency.
func drawSubsets(rng *rand.Rand, universe, n, minQ, maxQ int) [][]int {
	sizes := maxQ - minQ + 1
	out := make([][]int, 0, n)
	for k := minQ; k <= maxQ; k++ {
		var deck []int
		for i := k - minQ; i < n; i += sizes {
			taken := make([]bool, universe)
			var pick, skipped []int
			for len(pick) < k {
				if len(deck) == 0 {
					deck = rng.Perm(universe)
				}
				q := deck[0]
				deck = deck[1:]
				if taken[q] {
					skipped = append(skipped, q)
					continue
				}
				taken[q] = true
				pick = append(pick, q)
			}
			deck = append(skipped, deck...)
			sort.Ints(pick)
			out = append(out, pick)
		}
	}
	rng.Shuffle(len(out), func(i, j int) { out[i], out[j] = out[j], out[i] })
	return out
}

// plan binds and plans one request untraced.
func (w *planMix) plan(r planRequest) (*opt.Planned, error) {
	bound, err := tpch.Bind(r.queries, w.cat, false)
	if err != nil {
		return nil, err
	}
	return opt.Plan(opt.IShare, opt.Request{Queries: bound, Constraints: r.cons, MaxPace: w.cfg.MaxPace, Workers: workers})
}

func (w *planMix) pass(kind passKind, rec *recorder) (*passOut, error) {
	p := newPassOut(kind)
	p.latency = "plan_ms"
	d := newDigest()
	var planWork float64
	var l planLayers
	for i, r := range w.requests {
		req := i + 1
		p.attempted++
		root := rec.begin(req, 0, "bench", "request")
		start := threadCPU()
		bind := rec.begin(req, root, "plan", "tpch.Bind")
		bound, err := tpch.Bind(r.queries, w.cat, false)
		rec.end(bind)
		if err != nil {
			rec.end(root)
			p.fail("request %d: bind: %v", req, err)
			continue
		}
		var tr *trace.Tracer
		var opened int64
		call := rec.begin(req, root, "decompose", "opt.Plan")
		if rec != nil {
			tr, opened = trace.New(), rec.now()
		}
		planned, err := opt.Plan(opt.IShare, opt.Request{Queries: bound, Constraints: r.cons, MaxPace: w.cfg.MaxPace, Workers: workers, Trace: tr})
		rec.end(call)
		elapsed := threadCPU() - start
		rec.end(root)
		p.busy += elapsed
		p.samples["plan_ms"] = append(p.samples["plan_ms"], float64(elapsed)/1e6)
		if err != nil {
			p.fail("request %d: plan: %v", req, err)
			continue
		}
		if err := w.checkPlan(planned, len(r.queries)); err != nil {
			p.fail("request %d: %v", req, err)
			continue
		}
		planWork += planned.EstTotal
		for _, job := range planned.Jobs {
			d.add(req, job.Paces)
		}
		if rec != nil {
			if err := l.add(rec, req, bind, call, opened, tr, planned); err != nil {
				return nil, err
			}
		}
	}
	p.ops = len(w.requests)
	p.scalars["throughput"] = float64(p.ops) / p.busy.Seconds()
	p.scalars["work"] = planWork
	p.scalars["heap_mb"] = liveHeapMB()
	p.exact["plan_work"] = strconv.FormatFloat(planWork, 'g', -1, 64)
	p.exact["pace_digest"] = d.String()
	if rec != nil {
		l.report(p)
	}
	return p, nil
}

// checkPlan verifies a plan's shape: one job serving every query, one pace
// in [1, MaxPace] per subplan.
func (w *planMix) checkPlan(planned *opt.Planned, queries int) error {
	if len(planned.Jobs) != 1 {
		return fmt.Errorf("%d jobs, want 1", len(planned.Jobs))
	}
	job := planned.Jobs[0]
	if len(job.QueryIDs) != queries {
		return fmt.Errorf("plan serves %d of %d queries", len(job.QueryIDs), queries)
	}
	if len(job.Paces) != len(job.Graph.Subplans) {
		return fmt.Errorf("%d paces for %d subplans", len(job.Paces), len(job.Graph.Subplans))
	}
	for i, pc := range job.Paces {
		if pc < 1 || pc > w.cfg.MaxPace {
			return fmt.Errorf("subplan %d has pace %d outside [1, %d]", i, pc, w.cfg.MaxPace)
		}
	}
	return nil
}

// verify has nothing to add: every plan is checked as it is made.
func (w *planMix) verify(*passOut) error { return nil }

func (w *planMix) traceKinds() []passKind { return []passKind{plain, traced} }

func (w *planMix) named(plains []*passOut, setupS float64) []namedMetric {
	out := latencyMetrics("plan_ms", pooled(plains, "plan_ms"), 90)
	return append(out,
		namedMetric{name: "plan_work", value: medianScalar(plains, "work"), unit: "units"},
		namedMetric{name: "setup_s", value: setupS, unit: "s", n: w.cfg.Setups})
}

// planLayers accumulates a traced plan-mix pass's per-layer numbers.
type planLayers struct {
	requests                   int
	bindNS, buildNS, searchNS  int64
	decomposeNS, simNS         int64
	sims, lookups, hits, evals int64
	probeSims                  int64
	probeTime                  time.Duration
	rebuilds, accepted         int
	subplans, sharedOps        int
}

// add folds one traced request in: the program tracer's spans become
// children of the opt.Plan span, its counters and decision log give the
// cost, pace and decompose counts, and a cold Evaluate of the chosen plan
// times one simulation.
func (l *planLayers) add(rec *recorder, req, bind, call int, opened int64, tr *trace.Tracer, planned *opt.Planned) error {
	from := len(rec.spans)
	if err := rec.importProgram(req, call, opened, tr); err != nil {
		return err
	}
	l.requests++
	b := rec.spans[bind-1]
	l.bindNS += b.End - b.Start
	c := rec.spans[call-1]
	firstSearchEnd := int64(-1)
	for _, s := range rec.spans[from:] {
		switch s.Layer {
		case "mqo":
			l.buildNS += s.End - s.Start
		case "pace":
			l.searchNS += s.End - s.Start
			if firstSearchEnd < 0 {
				firstSearchEnd = s.End
			}
		}
	}
	if firstSearchEnd >= 0 {
		l.decomposeNS += c.End - firstSearchEnd
	}
	l.sims += tr.Counter("cost.sims")
	l.lookups += tr.Counter("cost.memo_lookups")
	l.hits += tr.Counter("cost.memo_hits")
	l.evals += tr.Counter("pace.evals")
	for _, d := range tr.Decisions("decompose") {
		if d.Action == "unshare" {
			l.rebuilds++
			if d.Accepted {
				l.accepted++
			}
		}
	}
	job := planned.Jobs[0]
	l.subplans += len(job.Graph.Subplans)
	l.sharedOps += job.Graph.Plan.SharedOpCount()
	probe := time.Now()
	m := cost.NewModel(job.Graph)
	t := time.Now()
	if _, err := m.Evaluate(job.Paces); err != nil {
		return fmt.Errorf("request %d: cold evaluate: %w", req, err)
	}
	l.simNS += time.Since(t).Nanoseconds()
	l.probeSims += m.Sims
	l.probeTime += time.Since(probe)
	return nil
}

func (l *planLayers) report(p *passOut) {
	p.probe = l.probeTime
	per := func(ns int64) float64 { return float64(ns) / 1e6 / float64(l.requests) }
	p.layers["plan.bind_ms"] = per(l.bindNS)
	p.layers["mqo.build_ms"] = per(l.buildNS)
	p.layers["mqo.subplans"] = float64(l.subplans)
	p.layers["mqo.shared_ops"] = float64(l.sharedOps)
	p.layers["cost.sims"] = float64(l.sims)
	p.layers["cost.memo_hit_ratio"] = ratio(float64(l.hits), float64(l.lookups))
	p.layers["cost.sim_us"] = ratio(float64(l.simNS)/1e3, float64(l.probeSims))
	p.layers["pace.search_ms"] = per(l.searchNS)
	p.layers["pace.evals"] = float64(l.evals)
	p.layers["decompose.ms"] = per(l.decomposeNS)
	p.layers["decompose.rebuilds"] = float64(l.rebuilds)
	p.layers["decompose.accepted"] = float64(l.accepted)
	p.exact["cost.sims"] = strconv.FormatInt(l.sims, 10)
	p.exact["pace.evals"] = strconv.FormatInt(l.evals, 10)
	p.exact["decompose.accepted"] = strconv.Itoa(l.accepted)
}

// liveHeapMB is the live heap after a forced collection.
func liveHeapMB() float64 {
	runtime.GC()
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	return float64(ms.HeapAlloc) / (1 << 20)
}
