package cost

import (
	"math/bits"
	"sync"

	"ishare/internal/catalog"
	"ishare/internal/exec"
	"ishare/internal/expr"
	"ishare/internal/mqo"
	"ishare/internal/plan"
	"ishare/internal/value"
)

// maxDeleteHitFraction is the modeled probability weight that a deletion
// arriving at a MIN/MAX aggregate retracts the current extremum and forces a
// state rescan; real workloads skew toward hot groups, so the expectation
// under a uniform model would underestimate the engine.
const maxDeleteHitFraction = 0.5

// SimResult is the outcome of simulating one subplan under one pace.
type SimResult struct {
	// PrivateTotal is the estimated work of all incremental executions.
	PrivateTotal float64
	// PrivateFinal is the estimated work of the final execution.
	PrivateFinal float64
	// Out is the subplan's estimated output stream over the window.
	Out Profile
}

// SimulateSubplan runs the analytic simulation of one subplan: pace
// executions, each consuming 1/pace of every input profile (the paper's
// memoization-friendly redefinition of pace over the subplan's own input).
func SimulateSubplan(s *mqo.Subplan, pace int, inputs map[*mqo.Op][]Profile) SimResult {
	res, _ := SimulateSubplanOps(s, pace, inputs, false)
	return res
}

// SimulateSubplanOps additionally returns each member operator's
// accumulated output profile when collect is true — the input cardinalities
// decomposition needs for subtree-local optimization (paper Figure 7).
func SimulateSubplanOps(s *mqo.Subplan, pace int, inputs map[*mqo.Op][]Profile, collect bool) (SimResult, map[*mqo.Op]Profile) {
	p := compile(s, nil)
	r := p.newRun()
	for i, x := range p.ext {
		r.setInput(p, i, inputs[x.op][x.child], pace)
	}
	return p.run(r, pace, collect)
}

// program is one subplan compiled for simulation. Everything the
// per-execution loop would otherwise re-derive — the visit order, each
// operator's input slots, its member queries, its predicates' canonical
// de-duplication — is computed once. A program is immutable after compile
// except for its pool of run states, so concurrent evaluations share it.
type program struct {
	// ops is the post-order visit from the root, children left to right:
	// every member's inputs precede it and the root is last, so work sums
	// in the order the recursive visit produced.
	ops []progOp
	// numOps is len(Subplan.Ops), the per-execution startup cost's factor.
	numOps int
	// ext lists the external inputs: base tables and child subplan outputs.
	ext []extSlot
	// width is one more than the largest member query id: the length of
	// every dense per-query vector the run states own.
	width int

	runs freeList[*runState]
}

// freeList is a mutex-guarded stack of reusable values. The model owns
// every free list, so pooled state dies with it; a package-level sync.Pool
// would keep it alive through a garbage collection in its victim cache.
type freeList[T any] struct {
	mu   sync.Mutex
	free []T
}

// get pops a pooled value, or returns fresh() when the list is empty.
func (f *freeList[T]) get(fresh func() T) T {
	f.mu.Lock()
	n := len(f.free)
	if n == 0 {
		f.mu.Unlock()
		return fresh()
	}
	v := f.free[n-1]
	f.free = f.free[:n-1]
	f.mu.Unlock()
	return v
}

// put pushes a value for reuse.
func (f *freeList[T]) put(v T) {
	f.mu.Lock()
	f.free = append(f.free, v)
	f.mu.Unlock()
}

// progOp is one compiled member operator.
type progOp struct {
	op *mqo.Op
	// in holds the input slots: i ≥ 0 is ops[i]'s output, i < 0 is
	// external input ^i.
	in      [2]int
	members []int
	// preds is aligned with members.
	preds       []memberPred
	hasExtremum bool
	// colRefs reports that every projection is a plain column reference
	// below maxCol, so the projected stats change only with the input's.
	colRefs bool
	maxCol  int
}

// memberPred is one member query's marker predicate; nil passes.
type memberPred struct {
	e expr.Expr
	// first is set on the first member carrying this canonical predicate:
	// queries sharing an identical predicate select the same tuples, so
	// the union survival counts it once.
	first bool
}

// extSlot is one external input: the consuming member and its input
// position (0 for a scan's base table). In a model's program, table holds
// the scan's table profile and src the producing subplan's id otherwise.
type extSlot struct {
	op    *mqo.Op
	child int
	table *Profile
	src   int
}

// profile returns a model program's external input: the table profile or
// the producing subplan's entry in outputs.
func (x *extSlot) profile(outputs []Profile) Profile {
	if x.table != nil {
		return *x.table
	}
	return outputs[x.src]
}

// compile builds the program of a subplan. With a model, external inputs
// are resolved once: scans get their table profile and other inputs the
// producing subplan's id in its graph. Without one they are read from the
// caller's input map.
func compile(s *mqo.Subplan, m *Model) *program {
	p := &program{numOps: len(s.Ops)}
	member := make(map[*mqo.Op]bool, len(s.Ops))
	for _, o := range s.Ops {
		member[o] = true
	}
	var visit func(o *mqo.Op) int
	visit = func(o *mqo.Op) int {
		po := progOp{op: o, members: o.Queries.Members()}
		addExt := func(child int, c *mqo.Op) int {
			x := extSlot{op: o, child: child, src: -1}
			if m != nil {
				if o.Kind == mqo.KindScan {
					tp := TableProfile(o.Table, o.Queries)
					x.table = &tp
				} else {
					x.src = m.Graph.SubplanOf(c).ID
				}
			}
			p.ext = append(p.ext, x)
			return ^(len(p.ext) - 1)
		}
		if o.Kind == mqo.KindScan {
			po.in[0] = addExt(0, nil)
		} else {
			for i, c := range o.Children {
				if member[c] {
					po.in[i] = visit(c)
				} else {
					po.in[i] = addExt(i, c)
				}
			}
		}
		seen := make(map[string]bool, len(o.Preds))
		po.preds = make([]memberPred, len(po.members))
		for i, q := range po.members {
			if e, ok := o.Preds[q]; ok {
				canon := expr.Canon(e)
				po.preds[i] = memberPred{e: e, first: !seen[canon]}
				seen[canon] = true
			}
		}
		for _, a := range o.Aggs {
			if !a.Func.Incremental() {
				po.hasExtremum = true
			}
		}
		po.colRefs = true
		for _, ne := range o.Exprs {
			c, ok := ne.E.(*expr.Column)
			if !ok {
				po.colRefs = false
				break
			}
			po.maxCol = max(po.maxCol, c.Index)
		}
		if n := 64 - bits.LeadingZeros64(uint64(o.Queries)); n > p.width {
			p.width = n
		}
		p.ops = append(p.ops, po)
		return len(p.ops) - 1
	}
	visit(s.Root)
	return p
}

// runState is one simulation's mutable state: per-operator state and
// output buffers, reused across executions and, through the program's
// pool, across simulations.
type runState struct {
	ops []opState
	// ext holds each external input's per-execution chunk.
	ext []Profile
	// outPQ accumulates the root's per-query output.
	outPQ []float64
	// acc accumulates every member's output when collecting.
	acc []Profile
}

// opState is one operator's state, persisted across the simulated
// incremental executions of its subplan.
type opState struct {
	// out is this execution's output. Its PerQuery and Cols buffers are
	// owned by the operator and overwritten by every execution.
	out Profile
	// colsVer changes whenever out.Cols may have changed; inVer and selVer
	// record the input versions the derived column stats and the cached
	// selectivities were computed from. Version 0 means never.
	colsVer, selVer uint64
	inVer           [2]uint64
	sel             []float64
	stats           colStats
	// cols is the owned buffer behind out.Cols for operators that derive
	// their output stats (project, join, aggregate).
	cols []catalog.ColumnStats
	// colsGroups is the group count the aggregate's stats were built for.
	colsGroups float64

	// Join state.
	leftState, rightState []float64
	leftNet, rightNet     float64
	// Aggregate state.
	arrived     []float64
	arrivedAll  float64
	groupDomain float64
	netState    float64
}

// extVer is every external input's column-stats version: their stats are
// fixed for a whole simulation.
const extVer = 1

func (p *program) newRun() *runState {
	r := &runState{
		ops:   make([]opState, len(p.ops)),
		ext:   make([]Profile, len(p.ext)),
		outPQ: make([]float64, p.width),
	}
	for i := range r.ops {
		o, st := p.ops[i].op, &r.ops[i]
		st.out = Profile{PerQuery: make([]float64, p.width), Queries: o.Queries}
		st.sel = make([]float64, len(p.ops[i].members))
		switch o.Kind {
		case mqo.KindJoin:
			st.leftState = make([]float64, p.width)
			st.rightState = make([]float64, p.width)
		case mqo.KindAggregate:
			st.arrived = make([]float64, p.width)
		}
	}
	for i := range r.ext {
		r.ext[i].PerQuery = make([]float64, p.width)
	}
	return r
}

// setInput stores external input i's per-execution share: 1/pace of the
// stream, with per-query values kept only for the consuming member's
// queries (the only ones the simulation reads).
func (r *runState) setInput(p *program, i int, in Profile, pace int) {
	k := float64(pace)
	c := &r.ext[i]
	c.Gross = in.Gross / k
	c.Net = in.Net / k
	c.DeleteShare = in.DeleteShare
	c.Cols = in.Cols
	c.Queries = in.Queries & p.ext[i].op.Queries
	for v := c.Queries; v != 0; v &= v - 1 {
		q := bits.TrailingZeros64(uint64(v))
		c.PerQuery[q] = in.PerQuery[q] / k
	}
}

// reset clears the state a previous simulation left behind.
func (r *runState) reset() {
	for i := range r.ops {
		st := &r.ops[i]
		st.colsVer, st.selVer, st.inVer = 0, 0, [2]uint64{}
		clear(st.leftState)
		clear(st.rightState)
		clear(st.arrived)
		st.leftNet, st.rightNet = 0, 0
		st.arrivedAll, st.groupDomain, st.netState = 0, 0, 0
	}
	clear(r.outPQ)
}

// input returns input slot i of an operator and its column-stats version.
func (r *runState) input(i int) (*Profile, uint64) {
	if i < 0 {
		return &r.ext[^i], extVer
	}
	return &r.ops[i].out, r.ops[i].colsVer
}

// run simulates pace executions over the inputs already set on r. Only the
// result escapes: the root's accumulated output and, when collecting, each
// member's, copied out of r's buffers once at the end.
func (p *program) run(r *runState, pace int, collect bool) (SimResult, map[*mqo.Op]Profile) {
	r.reset()
	if collect {
		r.acc = make([]Profile, len(p.ops))
		for i := range r.acc {
			r.acc[i].PerQuery = make([]float64, p.width)
		}
	}
	var res SimResult
	var outGross, outDeletes, outNet float64
	root := len(p.ops) - 1
	for e := 1; e <= pace; e++ {
		var work float64
		for i := range p.ops {
			work += r.step(&p.ops[i], &r.ops[i])
			if collect {
				out, acc := &r.ops[i].out, &r.acc[i]
				acc.Gross += out.Gross
				acc.DeleteShare += out.Gross * out.DeleteShare // normalized below
				acc.Net += out.Net
				for v := out.Queries; v != 0; v &= v - 1 {
					q := bits.TrailingZeros64(uint64(v))
					acc.PerQuery[q] += out.PerQuery[q]
				}
			}
		}
		rootOut := &r.ops[root].out
		// Root output materialization plus the per-execution startup
		// cost, as in the engine.
		work += rootOut.Gross
		work += float64(exec.StartupCostPerOp * p.numOps)
		res.PrivateTotal += work
		if e == pace {
			res.PrivateFinal = work
		}
		outGross += rootOut.Gross
		outDeletes += rootOut.Gross * rootOut.DeleteShare
		outNet += rootOut.Net
		for v := rootOut.Queries; v != 0; v &= v - 1 {
			q := bits.TrailingZeros64(uint64(v))
			r.outPQ[q] += rootOut.PerQuery[q]
		}
	}
	res.Out = Profile{
		Gross:    outGross,
		Net:      outNet,
		PerQuery: append([]float64(nil), r.outPQ...),
		Queries:  r.ops[root].out.Queries,
		Cols:     append([]catalog.ColumnStats(nil), r.ops[root].out.Cols...),
	}
	if outGross > 0 {
		res.Out.DeleteShare = outDeletes / outGross
	}
	if !collect {
		return res, nil
	}
	opOut := make(map[*mqo.Op]Profile, len(p.ops))
	for i := range p.ops {
		acc := r.acc[i]
		if acc.Gross > 0 {
			acc.DeleteShare /= acc.Gross
		}
		acc.Queries = r.ops[i].out.Queries
		acc.Cols = append([]catalog.ColumnStats(nil), r.ops[i].out.Cols...)
		opOut[p.ops[i].op] = acc
	}
	r.acc = nil
	return res, opOut
}

// step simulates one execution of the operator over its inputs' current
// outputs, leaves its output in st.out and returns its work units.
func (r *runState) step(o *progOp, st *opState) float64 {
	in, ver := r.input(o.in[0])
	switch o.op.Kind {
	case mqo.KindScan:
		return st.stepFilterLike(o, in, ver)
	case mqo.KindProject:
		return st.stepProject(o, in, ver)
	case mqo.KindJoin:
		rt, rver := r.input(o.in[1])
		return st.stepJoin(o, in, rt, ver, rver)
	case mqo.KindAggregate:
		return st.stepAgg(o, in, ver)
	default:
		panic("cost: unknown operator kind " + o.op.Kind.String())
	}
}

// applyPreds computes the per-query and union survival of the operator's
// marker predicates over a stream into st.out.
func (st *opState) applyPreds(o *progOp, in *Profile, ver uint64) {
	out := &st.out
	out.DeleteShare = in.DeleteShare
	if st.selVer != ver {
		st.stats.cols = in.Cols
		for i, mp := range o.preds {
			if mp.e != nil {
				st.sel[i] = expr.Selectivity(mp.e, &st.stats)
			}
		}
		st.selVer = ver
	}
	// The union survival multiplies misses over DISTINCT predicates:
	// queries sharing an identical predicate select the same tuples, so
	// counting the predicate once keeps the union (and the per-query
	// divergence signal downstream) correct.
	unionMiss := 1.0
	anyPass := false
	for i, q := range o.members {
		inQ := grossFor(in, q)
		sel := 1.0
		if mp := o.preds[i]; mp.e != nil {
			sel = st.sel[i]
			if mp.first {
				unionMiss *= 1 - sel
			}
		} else {
			anyPass = true
		}
		out.PerQuery[q] = inQ * sel
	}
	unionSel := 1.0
	if !anyPass {
		unionSel = 1 - unionMiss
	}
	out.Gross = in.Gross * unionSel
	out.Net = in.Net * unionSel
}

// stepFilterLike models scans (and any pass-through with markers).
func (st *opState) stepFilterLike(o *progOp, in *Profile, ver uint64) float64 {
	st.applyPreds(o, in, ver)
	st.out.Cols = in.Cols
	st.colsVer = ver
	return in.Gross + st.out.Gross
}

func (st *opState) stepProject(o *progOp, in *Profile, ver uint64) float64 {
	st.applyPreds(o, in, ver)
	// Projection rewrites columns; derive output stats per expression.
	// Stats of plain column references change only with the input's;
	// computed columns track the output size, which changes every step.
	if ver != st.inVer[0] || !o.colRefs || o.maxCol >= len(in.Cols) {
		st.cols = projectCols(st.cols[:0], o.op.Exprs, in.Cols, st.out.Net)
		st.inVer[0] = ver
		st.colsVer++
	}
	st.out.Cols = st.cols
	return in.Gross + st.out.Gross
}

// projectCols appends the projection's output stats to dst.
func projectCols(dst []catalog.ColumnStats, exprs []plan.NamedExpr, in []catalog.ColumnStats, n float64) []catalog.ColumnStats {
	for _, ne := range exprs {
		if c, ok := ne.E.(*expr.Column); ok && c.Index < len(in) {
			dst = append(dst, in[c.Index])
			continue
		}
		dst = append(dst, catalog.ColumnStats{Distinct: n})
	}
	return dst
}

func (st *opState) stepJoin(o *progOp, l, r *Profile, lver, rver uint64) float64 {
	// Key distinct estimates refresh with arrived data. Composite keys
	// multiply per-column distincts, capped by the side's row count.
	leftKeyDist, rightKeyDist := 1.0, 1.0
	if len(o.op.LeftKeys) > 0 {
		leftKeyDist = compositeDistinct(o.op.LeftKeys, l.Cols, st.leftNet+l.Net)
		rightKeyDist = compositeDistinct(o.op.RightKeys, r.Cols, st.rightNet+r.Net)
	}
	d := leftKeyDist
	if rightKeyDist > d {
		d = rightKeyDist
	}
	if d < 1 {
		d = 1
	}
	sel := 1 / d

	work := l.Gross + r.Gross // tuples
	work += l.Gross + r.Gross // state updates

	out := &st.out
	for _, q := range o.members {
		lq := grossFor(l, q)
		rq := grossFor(r, q)
		// ΔL ⋈ R_old + (L_old + ΔL) ⋈ ΔR.
		out.PerQuery[q] = lq*st.rightState[q]*sel + (st.leftState[q]+lq)*rq*sel
	}
	lU, rU := l.Gross, r.Gross
	union := lU*st.rightNet*sel + (st.leftNet+lU)*rU*sel
	out.Gross = union
	work += union // outputs

	// Update state with net arrivals; the output's net increment is the
	// derivative of Ln·Rn·sel: ΔLn·Rn_old + Ln_new·ΔRn.
	for _, q := range o.members {
		st.leftState[q] += grossFor(l, q) * (1 - 2*l.DeleteShare)
		st.rightState[q] += grossFor(r, q) * (1 - 2*r.DeleteShare)
	}
	netInc := (l.Net*st.rightNet + (st.leftNet+l.Net)*r.Net) * sel
	st.leftNet += l.Net
	st.rightNet += r.Net

	out.Net = netInc
	out.DeleteShare = combineDeleteShare(l.DeleteShare, r.DeleteShare)
	// The output schema is the concatenation of the inputs': rebuild it
	// only when either side's stats changed.
	if lver != st.inVer[0] || rver != st.inVer[1] {
		st.cols = append(append(st.cols[:0], l.Cols...), r.Cols...)
		st.inVer = [2]uint64{lver, rver}
		st.colsVer++
	}
	out.Cols = st.cols
	return work
}

// compositeDistinct estimates the distinct count of a multi-column join
// key: the product of per-column distincts, capped by the number of rows.
func compositeDistinct(keys []expr.Expr, cols []catalog.ColumnStats, n float64) float64 {
	d := 1.0
	for _, k := range keys {
		d *= distinctOf(k, cols, n)
		if d >= n {
			break
		}
	}
	if n >= 1 && d > n {
		d = n
	}
	if d < 1 {
		d = 1
	}
	return d
}

// grossFor returns the stream's gross tuples valid for query q: its
// per-query value when it has one, else the whole stream.
func grossFor(p *Profile, q int) float64 {
	if p.Queries.Has(q) {
		return p.PerQuery[q]
	}
	return p.Gross
}

// combineDeleteShare: a join output delta is a delete when exactly one of
// the contributing deltas is a delete.
func combineDeleteShare(a, b float64) float64 {
	return a*(1-b) + b*(1-a)
}

func (st *opState) stepAgg(o *progOp, in *Profile, ver uint64) float64 {
	if st.groupDomain == 0 {
		st.groupDomain = groupDomain(o.op.GroupBy, in.Cols)
	}
	work := in.Gross // tuples
	// Accumulator updates: one per valid query bit per aggregate.
	avgBits := in.avgBits(o.members)
	work += in.Gross * avgBits * float64(max(1, len(o.op.Aggs)))

	// MIN/MAX rescans on deletions.
	deletes := in.Gross * in.DeleteShare
	groupsNow := drawnDistinct(st.groupDomain, st.arrivedAll+in.Gross)
	if o.hasExtremum && deletes > 0 {
		valsPerGroup := 1.0
		if groupsNow > 0 {
			valsPerGroup = maxf(1, st.netState/groupsNow)
		}
		hits := deletes
		if hits > groupsNow {
			hits = groupsNow
		}
		work += hits * valsPerGroup * maxDeleteHitFraction
	}

	// Affected groups this execution.
	groupsBefore := drawnDistinct(st.groupDomain, st.arrivedAll)
	inserts := in.Gross * (1 - in.DeleteShare)
	affected := drawnDistinct(groupsNow, in.Gross)
	newGroups := groupsNow - groupsBefore
	if newGroups < 0 {
		newGroups = 0
	}
	if newGroups > affected {
		newGroups = affected
	}
	// Queries that aggregate different subsets of the input (divergent
	// marker predicates upstream) accumulate different values, so the
	// shared aggregate emits one output row per value class instead of one
	// row carrying all bits — the extra work a shared aggregate does over
	// the individual aggregates (paper §5.4).
	classes := st.valueClasses(o, in)
	// Changed groups retract the old row and emit the new one; new groups
	// emit one row — per value class.
	baseOut := (affected-newGroups)*2 + newGroups
	outGross := baseOut * classes

	out := &st.out
	out.Gross = outGross
	// The net increment of an aggregate's output is its newly created
	// groups; changed groups retract and re-emit, netting zero.
	out.Net = newGroups
	out.DeleteShare = 0
	if outGross > 0 {
		out.DeleteShare = (affected - newGroups) / outGross
	}
	for _, q := range o.members {
		arrivedQ := st.arrived[q] + grossFor(in, q)
		st.arrived[q] = arrivedQ
		gq := drawnDistinct(st.groupDomain, arrivedQ)
		share := 0.0
		if groupsNow > 0 {
			share = clamp01(gq / groupsNow)
		}
		// A query's own delta stream is single-class.
		out.PerQuery[q] = baseOut * share
	}
	st.arrivedAll += in.Gross
	st.netState += inserts - deletes

	work += outGross // output tuples
	if ver != st.inVer[0] || groupsNow != st.colsGroups {
		st.cols = aggCols(st.cols[:0], o.op, in.Cols, groupsNow)
		st.inVer[0], st.colsGroups = ver, groupsNow
		st.colsVer++
	}
	out.Cols = st.cols
	return work
}

// valueClasses estimates how many distinct per-query value classes the
// aggregate's output rows fall into. Queries that aggregate the same tuples
// produce identical values and cluster into one output row; queries over
// disjoint subsets each need their own row. The estimate interpolates on
// the overlap of the queries' input shares: with n live queries whose
// shares of the union sum to S, full overlap (S = n) gives one class and
// pairwise-disjoint inputs (S = 1) give n classes.
func (st *opState) valueClasses(o *progOp, in *Profile) float64 {
	if len(o.members) <= 1 {
		return 1
	}
	total := st.arrivedAll + in.Gross
	if total <= 0 {
		return 1
	}
	live := 0
	sumShares := 0.0
	for _, q := range o.members {
		arrivedQ := st.arrived[q] + grossFor(in, q)
		if arrivedQ <= 0 {
			continue
		}
		live++
		sumShares += clamp01(arrivedQ / total)
	}
	if live <= 1 {
		return 1
	}
	overlap := clamp01((sumShares - 1) / float64(live-1))
	return float64(live) - overlap*float64(live-1)
}

func groupDomain(groups []plan.NamedExpr, cols []catalog.ColumnStats) float64 {
	if len(groups) == 0 {
		return 1
	}
	d := 1.0
	for _, g := range groups {
		gd := 1000.0
		if c, ok := g.E.(*expr.Column); ok && c.Index < len(cols) && cols[c.Index].Distinct > 0 {
			gd = cols[c.Index].Distinct
		}
		d *= gd
		if d > 1e12 {
			return 1e12
		}
	}
	return d
}

// aggCols appends the aggregate's output stats to dst.
func aggCols(dst []catalog.ColumnStats, op *mqo.Op, in []catalog.ColumnStats, groups float64) []catalog.ColumnStats {
	for _, g := range op.GroupBy {
		if c, ok := g.E.(*expr.Column); ok && c.Index < len(in) {
			st := in[c.Index]
			st.Distinct = minf(st.Distinct, groups)
			dst = append(dst, st)
			continue
		}
		dst = append(dst, catalog.ColumnStats{Distinct: groups})
	}
	for range op.Aggs {
		dst = append(dst, catalog.ColumnStats{Distinct: groups, Min: value.Null, Max: value.Null})
	}
	return dst
}

func maxf(a, b float64) float64 {
	if a > b {
		return a
	}
	return b
}

func minf(a, b float64) float64 {
	if a < b || b <= 0 {
		return a
	}
	return b
}
