package exec

import (
	"fmt"

	"ishare/internal/buffer"
	"ishare/internal/delta"
	"ishare/internal/mqo"
	"ishare/internal/value"
	"ishare/internal/vec"
)

// Dataset holds the rows that arrive for each base table during one trigger
// window, in arrival order (insertions only; use DeltaDataset for streams
// with deletions and updates).
type Dataset map[string][]value.Row

// DeltaDataset holds signed change streams per table: insertions and
// deletions in arrival order. An update is modeled as a deletion of the old
// row followed by an insertion of the new one, as in the paper (§2.3).
type DeltaDataset map[string][]delta.Tuple

// Runner executes a subplan graph over a dataset under a pace
// configuration. A pace k for a subplan means k incremental executions, one
// each time 1/k of the trigger window's data has arrived; pace 1 is batch
// execution at the trigger point.
type Runner struct {
	Graph *mqo.Graph
	Execs []*SubplanExec

	// tables holds every stream's delta log, created the first time the
	// stream arrives or a scan asks for it; the logs are the runner's only
	// copy of the stream history.
	tables map[string]*buffer.Log
	// pending is the current window's arrivals, the caller's dataset read
	// in place: Fire copies fractions of each stream into its log, and the
	// window seal drops the reference.
	pending DeltaDataset
	// sealed counts window seals; winOpen reports whether a window is open
	// since the last seal.
	sealed  int
	winOpen bool

	// batch is the vectorized chunk size, kept so Graft can build fresh
	// executors that chunk identically to the originals.
	batch int

	// depth is each subplan's dependency depth (see computeDepth), the
	// wave partition Fire fans out over.
	depth []int

	// reg is the arrangement registry every stateful operator of this
	// runner attaches its indexed state to (see arrange.go).
	reg *Registry

	// Window-level result reuse (see reuse.go): lineage holds each
	// subplan's scan cone, winClean the per-window clean flags, reuse the
	// gate knob; the counters are atomic because wave-parallel firings hit
	// the gate concurrently.
	lineage        [][]string
	winClean       []bool
	reuse          bool
	reuseSkippable int64
	reuseSkipped   int64
}

// InsertStream converts an insert-only dataset into delta form (every row an
// insertion valid for all queries), preserving arrival order.
func InsertStream(data Dataset) DeltaDataset {
	deltas := make(DeltaDataset, len(data))
	for name, rows := range data {
		ts := make([]delta.Tuple, len(rows))
		for i, row := range rows {
			ts[i] = tupleFor(row)
		}
		deltas[name] = ts
	}
	return deltas
}

// Options are a runner's physical execution knobs. None of them changes
// results or modeled work — the invariance tests and the oracle prove that
// by constructing runners that differ only here.
type Options struct {
	// Batch is the vectorized chunk size: operators iterate deltas in
	// chunks of Batch tuples (any value < 1 means one chunk per input).
	Batch int
	// Share attaches stateful operators to shared arrangements (arrange.go).
	Share bool
	// Reuse elides provably idle clean-cone firings (reuse.go).
	Reuse bool
}

// EnvOptions returns the environment defaults: vec.BatchFromEnv,
// ShareFromEnv and ReuseFromEnv. They are read at runner construction
// rather than at package init so `go test` records them in the test cache
// key — a CI run with a knob set can never reuse cached default results.
func EnvOptions() Options {
	return Options{Batch: vec.BatchFromEnv(), Share: ShareFromEnv(), Reuse: ReuseFromEnv()}
}

// NewDeltaRunner builds a runner over signed change streams with the
// environment's options (EnvOptions).
func NewDeltaRunner(g *mqo.Graph, data DeltaDataset) (*Runner, error) {
	return New(g, data, EnvOptions())
}

// New builds fresh operator state, buffers and table logs for a subplan
// graph over signed change streams; data is the first trigger window's
// arrivals (possibly empty, for StartWindow-driven use), read in place like
// every StartWindow dataset.
func New(g *mqo.Graph, data DeltaDataset, opts Options) (*Runner, error) {
	r := &Runner{
		Graph:  g,
		tables: make(map[string]*buffer.Log),
		batch:  opts.Batch,
		reg:    NewRegistry(opts.Share),
		reuse:  opts.Reuse,
	}
	r.receive(data)
	// A non-empty construction dataset is the first (implicit) window: if
	// the plan is later grafted, that history must be replayable.
	for _, ts := range data {
		if len(ts) > 0 {
			r.winOpen = true
			break
		}
	}
	r.Execs = make([]*SubplanExec, len(g.Subplans))
	for _, s := range g.Subplans { // children-first, so child execs exist
		se, err := NewSubplanExec(g, s, r, r.batch, r.reg)
		if err != nil {
			return nil, err
		}
		r.Execs[s.ID] = se
	}
	r.computeLineage()
	r.computeDepth()
	r.computeWinClean() // the construction dataset is the implicit first window
	return r, nil
}

// TableLog implements inputResolver: the stream's log, created empty (with
// zero marks for every earlier seal) if the stream has not arrived yet.
func (r *Runner) TableLog(name string) *buffer.Log {
	log, ok := r.tables[name]
	if !ok {
		log = buffer.NewLog("table:"+name, r.sealed)
		r.tables[name] = log
	}
	return log
}

// SubplanLog implements inputResolver.
func (r *Runner) SubplanLog(s *mqo.Subplan) (*buffer.Log, error) {
	se := r.Execs[s.ID]
	if se == nil || se.Sub != s {
		return nil, fmt.Errorf("exec: subplan %d has no executor yet", s.ID)
	}
	return se.Out, nil
}

// Report summarizes one run.
type Report struct {
	// Paces is the executed pace configuration, indexed by subplan id.
	Paces []int
	// SubplanTotal and SubplanFinal hold each subplan's total work across
	// executions and the work of its final execution.
	SubplanTotal []int64
	SubplanFinal []int64
	// TotalWork is the summed work of all incremental executions of all
	// subplans — the paper's proxy for CPU consumption.
	TotalWork int64
	// QueryFinal maps query id to its final work: the summed final
	// execution work of the subplans it participates in — the paper's
	// proxy for query latency.
	QueryFinal []int64
}

// report builds the cumulative modeled-work report.
func (r *Runner) report(paces []int) *Report {
	rep := &Report{
		Paces:        append([]int(nil), paces...),
		SubplanTotal: make([]int64, len(r.Execs)),
		SubplanFinal: make([]int64, len(r.Execs)),
		QueryFinal:   make([]int64, r.Graph.Plan.NumQueries()),
	}
	for i, se := range r.Execs {
		rep.SubplanTotal[i] = se.TotalWork().Total()
		rep.SubplanFinal[i] = se.FinalWork().Total()
		rep.TotalWork += rep.SubplanTotal[i]
	}
	for q := range rep.QueryFinal {
		for _, s := range r.Graph.QuerySubplans(q) {
			rep.QueryFinal[q] += rep.SubplanFinal[s.ID]
		}
	}
	return rep
}

// ReportNow returns the cumulative modeled-work report of everything
// executed so far, without running anything — the windowed (StartWindow /
// RunWindow) driving mode's equivalent of Run's return value.
func (r *Runner) ReportNow() *Report { return r.report(nil) }

// arriveUpTo appends each stream's arrivals up to fraction j/p of the
// current window's dataset to its log.
func (r *Runner) arriveUpTo(j, p int) {
	for name, ts := range r.pending {
		log := r.tables[name]
		if from, target := log.Unsealed(), len(ts)*j/p; target > from {
			log.Append(ts[from:target]...)
		}
	}
}

// StartWindow begins a new trigger window whose arrivals are the given
// deltas; the fractions Fire arrives are measured over them alone. The
// runner reads arrivals in place until the window is sealed, so the caller
// must not modify them before the next StartWindow or Graft. Operator and
// buffer state carries over — the engine keeps ingesting, as the paper's
// recurring trigger windows do. The scheduler runtime (internal/sched)
// drives multi-window executions through this; Run and RunParallel consume
// the single window the Runner was constructed with.
func (r *Runner) StartWindow(arrivals DeltaDataset) {
	r.sealWindow()
	r.receive(arrivals)
	r.winOpen = true
	r.computeWinClean()
}

// receive makes arrivals the current window's pending dataset, giving every
// stream in it a log.
func (r *Runner) receive(arrivals DeltaDataset) {
	r.pending = arrivals
	for name := range arrivals {
		r.TableLog(name)
	}
}

// sealWindow closes the current window: the rest of its arrivals go into
// the logs, and every table log and executor output log records its length,
// forming one replayable unit of history for Graft. No-op when no window is
// open, so empty windows are still sealed exactly once — a rebuilt subplan
// must replay one execution per window even when the window carried no data
// (the per-execution fixed startup cost is part of the modeled work a
// from-scratch run would report).
func (r *Runner) sealWindow() {
	if !r.winOpen {
		return
	}
	r.arriveUpTo(1, 1)
	r.pending = nil
	r.winOpen = false
	r.sealed++
	for _, log := range r.tables {
		log.Seal()
	}
	for _, se := range r.Execs {
		se.Out.Seal()
	}
	// Arrangements whose last holder released during the window are only
	// reclaimed now that it is sealed — tombstone-style deferred expiry, so
	// in-flight executions never see their state disappear.
	r.reg.Sweep()
}

// SetShareArrangements flips arrangement sharing for operators attached
// from now on (the next Graft's fresh executors); state already shared
// stays shared until its holders release. Toggling mid-churn must be
// observationally invisible — the oracle flips it at random window
// boundaries and requires byte-identical results and reports.
func (r *Runner) SetShareArrangements(v bool) { r.reg.SetShare(v) }

// ArrangeStats returns the arrangement registry's current accounting. Not
// safe to call concurrently with running executions.
func (r *Runner) ArrangeStats() ArrangeStats { return r.reg.Stats() }

// CheckArrangements verifies the registry refcount invariant against the
// live executors: every arrangement handle an operator holds is counted by
// exactly one registry ref and vice versa, and tombstone accounting
// balances. The churn oracle calls it after every graft; a leak (or a
// double release) surfaces as a mismatch here long before memory numbers
// would show it.
func (r *Runner) CheckArrangements() error {
	handles := 0
	for _, se := range r.Execs {
		handles += se.arrangeHandles()
	}
	return r.reg.checkHandles(handles)
}

// Results returns query q's current materialized result rows; nil for an
// inactive (retired / not-yet-admitted) query slot.
func (r *Runner) Results(q int) []value.Row {
	root := r.Graph.QueryRootSubplan[q]
	if root == nil {
		return nil
	}
	return materialized(r.Execs[root.ID].Out, q)
}
