// Package opt assembles the end-to-end approaches compared in the paper's
// evaluation: the three baselines (NoShare-Uniform, NoShare-Nonuniform from
// prior work [44], and Share-Uniform over the MQO plan [17]) and the three
// iShare variants (w/o unshare, w/ unshare, and brute-force decomposition).
// Planning produces one or more executable jobs (a subplan graph plus a pace
// configuration); Execute runs them over a dataset and aggregates measured
// total work and per-query final work.
package opt

import (
	"fmt"
	"time"

	"ishare/internal/cost"
	"ishare/internal/decompose"
	"ishare/internal/exec"
	"ishare/internal/mqo"
	"ishare/internal/pace"
	"ishare/internal/plan"
	"ishare/internal/trace"
)

// Approach identifies one compared system.
type Approach int

// The compared approaches.
const (
	// NoShareUniform executes each query separately with one pace for the
	// whole query.
	NoShareUniform Approach = iota
	// NoShareNonuniform executes each query separately, split at blocking
	// operators, with a pace per part (prior work [44]).
	NoShareNonuniform
	// ShareUniform runs the MQO shared plan(s) with a single pace per
	// connected shared plan (state of the art [17]).
	ShareUniform
	// IShareNoUnshare is iShare with nonuniform paces but without
	// decomposition.
	IShareNoUnshare
	// IShare is the full system: nonuniform paces plus clustering-based
	// decomposition.
	IShare
	// IShareBruteForce replaces the clustering with exhaustive split
	// enumeration.
	IShareBruteForce
)

// String names the approach as in the paper.
func (a Approach) String() string {
	switch a {
	case NoShareUniform:
		return "NoShare-Uniform"
	case NoShareNonuniform:
		return "NoShare-Nonuniform"
	case ShareUniform:
		return "Share-Uniform"
	case IShareNoUnshare:
		return "iShare (w/o unshare)"
	case IShare:
		return "iShare (w/ unshare)"
	case IShareBruteForce:
		return "iShare (Brute-Force)"
	default:
		return fmt.Sprintf("Approach(%d)", int(a))
	}
}

// Job is one executable unit: a subplan graph with paces. QueryIDs maps the
// job's local query indexes to global query indexes.
type Job struct {
	Graph    *mqo.Graph
	Paces    []int
	QueryIDs []int
	// Model is the cost model the planner used for this job; EXPLAIN reads
	// its memo-traffic counters and re-evaluates marginal raises from it.
	Model *cost.Model
}

// Planned is the outcome of optimization for one approach.
type Planned struct {
	Approach Approach
	Jobs     []Job
	// OptDuration is the wall-clock optimization time.
	OptDuration time.Duration
	// EstTotal is the cost model's estimate of total work.
	EstTotal float64
	// Splits records the adopted decomposition for iShare plans (base
	// signature → query partitions), used by Save/Load.
	Splits map[string][]mqo.Bitset
}

// Request bundles the planning inputs.
type Request struct {
	// Queries are the bound query plans.
	Queries []plan.Query
	// Constraints are absolute final-work constraints in cost-model
	// units, one per query.
	Constraints []float64
	// MaxPace is J.
	MaxPace int
	// Calibration optionally corrects the cost model with factors learned
	// from a previous recurrence (see ExecuteWithCalibration).
	Calibration cost.Calibration
	// Workers bounds the pace search's candidate-evaluation pool: 1 is
	// sequential, <= 0 defaults to GOMAXPROCS. Any setting returns the
	// same plan.
	Workers int
	// Trace optionally records the whole optimization: build/search spans,
	// memo counters and the pace/decomposition decision logs EXPLAIN and
	// the Chrome export render.
	Trace *trace.Tracer
}

// AbsoluteConstraints converts relative final-work constraints (fractions
// of each query's separate batch final work, per the paper §2.1) to
// absolute cost-model units.
func AbsoluteConstraints(queries []plan.Query, rel []float64) ([]float64, error) {
	if len(rel) != len(queries) {
		return nil, fmt.Errorf("opt: %d relative constraints for %d queries", len(rel), len(queries))
	}
	graphs := make([]*mqo.Graph, len(queries))
	for i, q := range queries {
		g, err := singleGraph(q)
		if err != nil {
			return nil, err
		}
		graphs[i] = g
	}
	batch, err := cost.BatchFinalWork(graphs)
	if err != nil {
		return nil, err
	}
	abs := make([]float64, len(rel))
	for i, r := range rel {
		abs[i] = r * batch[i]
	}
	return abs, nil
}

// Plan optimizes the request under the given approach.
func Plan(a Approach, req Request) (*Planned, error) {
	if len(req.Constraints) != len(req.Queries) {
		return nil, fmt.Errorf("opt: %d constraints for %d queries", len(req.Constraints), len(req.Queries))
	}
	if req.MaxPace < 1 {
		return nil, fmt.Errorf("opt: max pace %d", req.MaxPace)
	}
	start := time.Now()
	var (
		p   *Planned
		err error
	)
	switch a {
	case NoShareUniform:
		p, err = planNoShare(req, false)
	case NoShareNonuniform:
		p, err = planNoShare(req, true)
	case ShareUniform:
		p, err = planShareUniform(req)
	case IShareNoUnshare, IShare, IShareBruteForce:
		p, err = planIShare(a, req)
	default:
		return nil, fmt.Errorf("opt: unknown approach %d", a)
	}
	if err != nil {
		return nil, err
	}
	p.Approach = a
	p.OptDuration = time.Since(start)
	return p, nil
}

func singleGraph(q plan.Query) (*mqo.Graph, error) {
	sp, err := mqo.Build([]plan.Query{q})
	if err != nil {
		return nil, err
	}
	return mqo.Extract(sp)
}

// planNoShare builds one job per query. Uniform mode searches a single pace
// for the whole query; nonuniform mode cuts at blocking operators and runs
// the §3.2 greedy.
func planNoShare(req Request, nonuniform bool) (*Planned, error) {
	p := &Planned{}
	for qi, q := range req.Queries {
		var g *mqo.Graph
		var err error
		if nonuniform {
			sp, berr := mqo.Build([]plan.Query{q})
			if berr != nil {
				return nil, berr
			}
			g, err = mqo.ExtractWithCuts(sp, func(o *mqo.Op) bool { return o.Kind == mqo.KindAggregate })
		} else {
			g, err = singleGraph(q)
		}
		if err != nil {
			return nil, err
		}
		m := cost.NewModel(g)
		m.Trace = req.Trace
		if req.Calibration != nil {
			m.SetCalibration(req.Calibration)
		}
		var paces []int
		var est float64
		if nonuniform {
			o, err := pace.NewOptimizer(m, []float64{req.Constraints[qi]}, req.MaxPace)
			if err != nil {
				return nil, err
			}
			o.Workers = req.Workers
			o.Trace = req.Trace
			pc, ev, err := o.Greedy()
			if err != nil {
				return nil, err
			}
			paces, est = pc, ev.Total
		} else {
			pc, ev, err := uniformPace(m, []float64{req.Constraints[qi]}, req.MaxPace, nil)
			if err != nil {
				return nil, err
			}
			paces, est = pc, ev.Total
		}
		p.Jobs = append(p.Jobs, Job{Graph: g, Paces: paces, QueryIDs: []int{qi}, Model: m})
		p.EstTotal += est
	}
	return p, nil
}

// uniformPace finds a single pace for the subplans selected by within (all
// when nil) with the §3.2 greedy restricted to uniform increments: raise
// the pace while some query's bounded missed final work still improves,
// stopping when every constraint is met, the pace reaches maxPace, or an
// increment stops helping. This mirrors the paper's Share-Uniform and
// NoShare-Uniform planners, which push a single pace as eagerly as the
// lowest constraint demands.
func uniformPace(m *cost.Model, constraints []float64, maxPace int, within map[int]bool) ([]int, cost.Eval, error) {
	n := len(m.Graph.Subplans)
	build := func(k int) []int {
		p := pace.Ones(n)
		for i := 0; i < n; i++ {
			if within == nil || within[i] {
				p[i] = k
			}
		}
		return p
	}
	relevant := func(q int) bool {
		return within == nil || queryInComponent(m.Graph, q, within)
	}
	meets := func(ev cost.Eval) bool {
		for q, l := range constraints {
			if relevant(q) && ev.QueryFinal[q] > l {
				return false
			}
		}
		return true
	}
	boundedMiss := func(ev cost.Eval) float64 {
		var sum float64
		for q, l := range constraints {
			if !relevant(q) {
				continue
			}
			if d := ev.QueryFinal[q] - l; d > 0 {
				sum += d
			}
		}
		return sum
	}
	k := 1
	cur, err := m.Evaluate(build(k))
	if err != nil {
		return nil, cost.Eval{}, err
	}
	for k < maxPace && !meets(cur) {
		cand, err := m.Evaluate(build(k + 1))
		if err != nil {
			return nil, cost.Eval{}, err
		}
		if boundedMiss(cand) >= boundedMiss(cur)-1e-9 {
			break // eagerness no longer reduces any missed final work
		}
		k++
		cur = cand
	}
	return build(k), cur, nil
}

func queryInComponent(g *mqo.Graph, q int, within map[int]bool) bool {
	for _, s := range g.QuerySubplans(q) {
		if within[s.ID] {
			return true
		}
	}
	return false
}

// planShareUniform builds the MQO shared plan and assigns one pace per
// connected component (the paper's "several separate shared plans").
func planShareUniform(req Request) (*Planned, error) {
	sp, err := mqo.BuildWithOptions(req.Queries, mqo.BuildOptions{Trace: req.Trace})
	if err != nil {
		return nil, err
	}
	g, err := mqo.Extract(sp)
	if err != nil {
		return nil, err
	}
	m := cost.NewModel(g)
	m.Trace = req.Trace
	if req.Calibration != nil {
		m.SetCalibration(req.Calibration)
	}
	comps := components(g)
	paces := pace.Ones(len(g.Subplans))
	for _, comp := range comps {
		within := make(map[int]bool, len(comp))
		for _, id := range comp {
			within[id] = true
		}
		cp, _, err := uniformPace(m, req.Constraints, req.MaxPace, within)
		if err != nil {
			return nil, err
		}
		for _, id := range comp {
			paces[id] = cp[id]
		}
	}
	ev, err := m.Evaluate(paces)
	if err != nil {
		return nil, err
	}
	ids := make([]int, len(req.Queries))
	for i := range ids {
		ids[i] = i
	}
	return &Planned{
		Jobs:     []Job{{Graph: g, Paces: paces, QueryIDs: ids, Model: m}},
		EstTotal: ev.Total,
	}, nil
}

// components returns the connected components of the subplan graph as
// subplan-id lists.
func components(g *mqo.Graph) [][]int {
	parent := make([]int, len(g.Subplans))
	for i := range parent {
		parent[i] = i
	}
	var find func(int) int
	find = func(x int) int {
		for parent[x] != x {
			parent[x] = parent[parent[x]]
			x = parent[x]
		}
		return x
	}
	union := func(a, b int) { parent[find(a)] = find(b) }
	for _, s := range g.Subplans {
		for _, c := range s.Children {
			union(s.ID, c.ID)
		}
	}
	byRoot := make(map[int][]int)
	for i := range parent {
		r := find(i)
		byRoot[r] = append(byRoot[r], i)
	}
	out := make([][]int, 0, len(byRoot))
	for _, ids := range byRoot {
		out = append(out, ids)
	}
	return out
}

// planIShare runs the full iShare pipeline (pace search, optionally
// decomposition).
func planIShare(a Approach, req Request) (*Planned, error) {
	d := &decompose.Decomposer{
		Queries:     req.Queries,
		Constraints: req.Constraints,
		Opts: decompose.Options{
			MaxPace: req.MaxPace,
			Unshare: a != IShareNoUnshare,
			// Partial (subtree) decomposition is part of the full system
			// (paper §4.3); the brute-force ablation keeps whole-subplan
			// splits to stay comparable with Figure 16.
			Partial:     a == IShare,
			BruteForce:  a == IShareBruteForce,
			Calibration: req.Calibration,
			Workers:     req.Workers,
			Tracer:      req.Trace,
		},
	}
	res, err := d.Optimize()
	if err != nil {
		return nil, err
	}
	ids := make([]int, len(req.Queries))
	for i := range ids {
		ids[i] = i
	}
	return &Planned{
		Jobs:     []Job{{Graph: res.Graph, Paces: res.Paces, QueryIDs: ids, Model: res.Model}},
		EstTotal: res.Eval.Total,
		Splits:   res.Splits,
	}, nil
}

// Outcome aggregates the measured execution of a Planned set of jobs.
type Outcome struct {
	// TotalWork is the measured total work across all jobs.
	TotalWork int64
	// QueryFinal is the measured final work per global query index.
	QueryFinal []int64
}

// Execute runs every job over the dataset with fresh engine state.
func Execute(p *Planned, ds exec.Dataset, numQueries int) (*Outcome, error) {
	out, _, err := RunJobs(p, ds, numQueries, 1, false, nil)
	return out, err
}

// ExecuteWithCalibration runs the plan like Execute and additionally
// derives per-subplan calibration factors from the measured work and
// output sizes — the feedback loop for recurring queries (paper §3.2).
// Pass the returned Calibration in the next recurrence's Request.
func ExecuteWithCalibration(p *Planned, ds exec.Dataset, numQueries int) (*Outcome, cost.Calibration, error) {
	return RunJobs(p, ds, numQueries, 1, true, nil)
}

// RunJobs is the batch job loop every one-shot execution of a plan goes
// through: each job runs over the dataset on a fresh runner at its paces,
// independent subplans on up to workers goroutines (< 1 selects
// GOMAXPROCS). visit, when non-nil, sees each job's runner and cumulative
// report right after the job ran. With calibrate set it also derives each
// job's calibration factors (see ExecuteWithCalibration) and merges them.
func RunJobs(p *Planned, ds exec.Dataset, numQueries, workers int, calibrate bool,
	visit func(job int, r *exec.Runner, rep *exec.Report)) (*Outcome, cost.Calibration, error) {
	out := &Outcome{QueryFinal: make([]int64, numQueries)}
	merged := cost.Calibration{}
	for ji, job := range p.Jobs {
		r, err := exec.NewDeltaRunner(job.Graph, exec.InsertStream(ds))
		if err != nil {
			return nil, nil, err
		}
		rep, err := r.RunParallel(job.Paces, workers)
		if err != nil {
			return nil, nil, err
		}
		out.TotalWork += rep.TotalWork
		for local, global := range job.QueryIDs {
			out.QueryFinal[global] += rep.QueryFinal[local]
		}
		if visit != nil {
			visit(ji, r, rep)
		}
		if !calibrate {
			continue
		}
		measuredWork := make([]float64, len(job.Graph.Subplans))
		measuredFinal := make([]float64, len(job.Graph.Subplans))
		measuredOut := make([]float64, len(job.Graph.Subplans))
		for i, se := range r.Execs {
			measuredWork[i] = float64(rep.SubplanTotal[i])
			measuredFinal[i] = float64(rep.SubplanFinal[i])
			measuredOut[i] = float64(se.Out.Len())
		}
		calib, err := cost.CalibrationFromRun(cost.NewModel(job.Graph), job.Paces, measuredWork, measuredFinal, measuredOut)
		if err != nil {
			return nil, nil, err
		}
		for sig, f := range calib {
			merged[sig] = f
		}
	}
	return out, merged, nil
}

// MeasuredBatchFinals executes each query separately in one batch and
// returns the measured final work — the denominator for the experiments'
// latency goals.
func MeasuredBatchFinals(queries []plan.Query, ds exec.Dataset) ([]int64, error) {
	jobs := make([]Job, len(queries))
	for i, q := range queries {
		g, err := singleGraph(q)
		if err != nil {
			return nil, err
		}
		jobs[i] = Job{Graph: g, Paces: pace.Ones(len(g.Subplans)), QueryIDs: []int{i}}
	}
	out, err := Execute(&Planned{Jobs: jobs}, ds, len(queries))
	if err != nil {
		return nil, err
	}
	return out.QueryFinal, nil
}
