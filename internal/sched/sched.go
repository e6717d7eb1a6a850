// Package sched is the wall-clock scheduler runtime: it takes an optimized
// shared plan (a subplan graph plus a pace vector) and actually drives the
// incremental executions against trigger windows — the layer the paper's
// optimizer assumes but its prototype delegates to Spark job scheduling.
//
// Each trigger window spans a fixed clock duration. A subplan with pace p
// fires p times per window, the j-th firing due when j/p of the window has
// elapsed and j/p of the window's data has arrived; the final firing of
// every subplan lands exactly at the trigger point (window end). The
// scheduler tracks, per query and window, the deadline slack: the query's
// latency goal minus the time its final executions actually completed after
// the trigger point. Execution cost is charged against an injectable Clock —
// the real monotonic clock in production, a deterministic VirtualClock in
// tests — with Config.WorkRate translating the engine's work units into
// clock time, so overload (eager paces whose executions outrun the window)
// is observable and reproducible.
//
// When a window overloads (a missed deadline, or firings starting later than
// Config.LagThreshold after their due times), the degradation policy
// coarsens paces toward batch: it halves the pace of the subplan whose
// eager (pre-trigger) executions consumed the most window time — the
// highest spend per unit of slack bought, since under overload it is the
// per-execution fixed costs of eagerness that starve the trigger-point
// executions — and clamps the subplan's ancestors so no parent out-paces a
// child. Every decision is recorded in the Result and in the metrics
// registry.
package sched

import (
	"fmt"
	"runtime"
	"time"

	"ishare/internal/eventlog"
	"ishare/internal/exec"
	"ishare/internal/metrics"
	"ishare/internal/mqo"
	"ishare/internal/profile"
	"ishare/internal/trace"
	"ishare/internal/value"
)

// Config parameterizes a scheduler run.
type Config struct {
	// Window is the trigger window length (required, positive).
	Window time.Duration
	// Windows is how many consecutive windows to drive (required, ≥ 1).
	Windows int
	// Clock injects the time source; nil selects RealClock.
	Clock Clock
	// WorkRate models execution speed as work units per clock second:
	// an incremental execution reporting work w occupies w/WorkRate of
	// clock time. On a VirtualClock this is what makes executions take
	// time at all; on a RealClock the modeled duration is slept off, so
	// a simulation driven on real time behaves identically. 0 disables
	// modeled charging (only measured clock time counts).
	WorkRate float64
	// Deadlines is each query's latency goal: the clock duration after
	// the trigger point by which the query's final executions must have
	// completed. Length must equal the graph's query count.
	Deadlines []time.Duration
	// Workers bounds concurrent subplan execution within a dependency
	// wave of firings due at the same instant: 1 (and the zero value) is
	// fully sequential, 0 < n fans out on up to n goroutines, and -1
	// selects GOMAXPROCS. Schedules, work accounting and metrics are
	// byte-identical at any setting — clock time is charged in canonical
	// sequential order — only real wall time changes.
	Workers int
	// DisableDegradation turns the overload policy off: paces then stay
	// fixed for the whole run no matter how many deadlines miss.
	DisableDegradation bool
	// LagThreshold is the start-lag beyond which a window counts as
	// overloaded even when every deadline was met; 0 defaults to
	// Window/10.
	LagThreshold time.Duration
	// Metrics receives the scheduler's counters and histograms; nil
	// allocates a private registry, readable via Scheduler.Snapshot.
	Metrics *metrics.Registry
	// Trace records every firing into Result.Trace — the byte-level
	// schedule the determinism tests compare.
	Trace bool
	// Tracer optionally receives the run's spans: per-firing execution
	// spans on per-subplan tracks, a window span plus deadline-settlement
	// instants on the control track (tid 0), degradation and recalibration
	// decisions, and the exec.* work and arrangement counters.
	// Span offsets come from the canonical sequential accounting loop, so
	// exports are byte-identical at any Workers setting.
	Tracer *trace.Tracer
	// TraceName names the tracer process for this run ("sched" when
	// empty) — one process per scheduler run gives one Perfetto track
	// group per job.
	TraceName string
	// Profile optionally collects per-subplan per-window execution
	// profiles {modeled Work, measured wall-ns, firings, batch counts}
	// and maintains each subplan's observed/modeled drift EWMA.
	// Observations happen in the canonical accounting loop and drift is a
	// pure function of deterministic Work counts, so profiles and alerts
	// are identical at any Workers setting; only the wall-ns column is
	// nondeterministic. nil disables profiling (one pointer check per
	// firing, no allocations).
	Profile *profile.Profiler
	// Events optionally receives the run's structured events — window
	// closes, degradation decisions, drift alerts, arrangement lifecycle,
	// grafts — timestamped with clock offsets from the run epoch. Emitted
	// from the canonical accounting path only, so a VirtualClock run
	// renders byte-identical JSONL at any Workers setting. nil disables.
	Events *eventlog.Log
	// Status optionally receives a live status snapshot at every window
	// close (pace vector, per-query slack, per-subplan drift table,
	// arrangement stats) for StatusHandler's statusz endpoint. nil
	// disables.
	Status *StatusBoard
	// Recalibrate optionally closes the cost loop: when drift alerts
	// persist for Persistence consecutive windows, the scheduler folds the
	// observed drift back into the cost model and re-searches the pace
	// vector (warm-started from the live memo), swapping it at the window
	// boundary. nil disables; New rejects a policy that could never fire
	// (no Model, no Profile, MaxPace < 1, or not one constraint per query).
	// A recalibration preempts degradation in the window that triggers it —
	// retuning the model subsumes the blunt pace-halving response.
	Recalibrate *RecalibratePolicy
}

// FiringRecord traces one incremental execution (recorded when Config.Trace
// is set). All offsets are measured from the run epoch (the clock's instant
// when the scheduler was created).
type FiringRecord struct {
	Window  int           `json:"window"`
	Subplan int           `json:"subplan"`
	Index   int           `json:"index"`
	Pace    int           `json:"pace"`
	Due     time.Duration `json:"due"`
	Start   time.Duration `json:"start"`
	Finish  time.Duration `json:"finish"`
	Work    int64         `json:"work"`
}

// WindowStats summarizes one trigger window.
type WindowStats struct {
	Window int `json:"window"`
	// Paces is the pace vector in force during the window.
	Paces []int `json:"paces"`
	// Executions and Work count the window's incremental executions and
	// their summed work units.
	Executions int   `json:"executions"`
	Work       int64 `json:"work"`
	// MaxLag is the worst start-lag of any firing in the window.
	MaxLag time.Duration `json:"max_lag"`
	// QuerySlack is each query's deadline slack: goal minus actual
	// completion relative to the trigger point. Negative means missed.
	QuerySlack []time.Duration `json:"query_slack"`
	// Met and Missed count queries by deadline outcome.
	Met    int `json:"met"`
	Missed int `json:"missed"`
	// Overloaded marks windows that triggered the degradation check.
	Overloaded bool `json:"overloaded"`
	// Degraded is the degradation decision taken after this window, if
	// any.
	Degraded *Decision `json:"degraded,omitempty"`
	// Recalibrated is the closed-loop recalibration performed after this
	// window, if any.
	Recalibrated *Recalibration `json:"recalibrated,omitempty"`
}

// Result summarizes a whole scheduler run.
type Result struct {
	Windows        []WindowStats   `json:"windows"`
	Decisions      []Decision      `json:"decisions"`
	Recalibrations []Recalibration `json:"recalibrations,omitempty"`
	FinalPaces     []int           `json:"final_paces"`
	TotalWork      int64           `json:"total_work"`
	Met            int             `json:"met"`
	Missed         int             `json:"missed"`
	Trace          []FiringRecord  `json:"trace,omitempty"`
}

// Scheduler drives one plan's incremental executions against the clock. Use
// New, then either Run for the whole configured horizon or Tick to step one
// firing group at a time.
type Scheduler struct {
	cfg    Config
	graph  *mqo.Graph
	runner *exec.Runner
	src    Source
	clock  Clock
	reg    *metrics.Registry
	m      schedMetrics
	paces  []int

	epoch    time.Time
	window   int
	firings  []exec.Firing
	pos      int
	winStart time.Time
	finish   []time.Time     // per-subplan completion instant, this window
	spent    []time.Duration // per-subplan pre-trigger execution time, this window
	maxLag   time.Duration
	// win is the window record's per-subplan accumulator: every firing is
	// counted into it exactly once, in the canonical accounting loop, and
	// at window close the metrics counters, the profiler and WindowStats
	// all read it (see closeWindow).
	win []profile.Sample
	// stats is the runner's arrangement and reuse accounting as of the last
	// window close or graft (see takeStats).
	stats runnerStats
	// works and walls are the firing group's scratch outputs, reused
	// across groups (a group fires each subplan at most once).
	works []exec.Work
	walls []int64

	tr        *trace.Tracer
	prof      *profile.Profiler
	ev        *eventlog.Log
	status    *StatusBoard
	tracePid  int
	traceBase time.Duration      // scheduler epoch's offset on the tracer timeline
	subExecs  []*metrics.Counter // per-subplan execution counters
	subWork   []*metrics.Counter // per-subplan work counters
	// streak counts each subplan's consecutive alert windows for the
	// recalibration trigger; recalCooldown disarms it after a firing.
	streak        []int
	recalCooldown int

	res  Result
	done bool
}

// schedMetrics holds the registry handles the scheduler updates on every
// firing group or window close, resolved once in New rather than by name
// under the registry lock each time. Every one of them exists after the
// first window closes in any case. Counters for occasional facts
// (overloads, degradations, recalibrations, reuse) are still created when
// the fact first occurs, so a snapshot names them only once they happened.
type schedMetrics struct {
	lag, slack                      *metrics.Histogram
	execs, work                     *metrics.Counter
	windows, met, missed            *metrics.Counter
	arrBuilt, arrShared, arrFreed   *metrics.Counter
	window, liveQueries, lastMaxLag *metrics.Gauge
}

func newSchedMetrics(reg *metrics.Registry) schedMetrics {
	return schedMetrics{
		lag:         reg.Histogram("sched.exec_lag_ms", 1, 5, 10, 50, 100, 500, 1000, 5000),
		slack:       reg.Histogram("sched.query_slack_ms", -5000, -1000, -100, -10, 0, 10, 100, 1000, 5000),
		execs:       reg.Counter("sched.executions"),
		work:        reg.Counter("sched.work_total"),
		windows:     reg.Counter("sched.windows"),
		met:         reg.Counter("sched.deadline_met"),
		missed:      reg.Counter("sched.deadline_missed"),
		arrBuilt:    reg.Counter("exec.arrangements.built"),
		arrShared:   reg.Counter("exec.arrangements.shared_attaches"),
		arrFreed:    reg.Counter("exec.arrangements.freed"),
		window:      reg.Gauge("sched.window"),
		liveQueries: reg.Gauge("sched.live_queries"),
		lastMaxLag:  reg.Gauge("sched.last_max_lag_ms"),
	}
}

// runnerStats is the runner's arrangement and reuse accounting, read once
// per window close and per graft and shared by every sink.
type runnerStats struct {
	arr   exec.ArrangeStats
	reuse exec.ReuseStats
}

// takeStats reads the runner's lifetime accounting into s.stats and returns
// the change since the previous read, so each window's metrics and events
// describe that window. The skippable reuse column (clean-cone firings,
// counted whether or not the knob is on) is deterministic; skipped is the
// physical count and depends on the knob.
func (s *Scheduler) takeStats() runnerStats {
	prev := s.stats
	s.stats = runnerStats{arr: s.runner.ArrangeStats(), reuse: s.runner.ReuseStats()}
	return runnerStats{
		arr: exec.ArrangeStats{
			Built:          s.stats.arr.Built - prev.arr.Built,
			SharedAttaches: s.stats.arr.SharedAttaches - prev.arr.SharedAttaches,
			Freed:          s.stats.arr.Freed - prev.arr.Freed,
		},
		reuse: exec.ReuseStats{
			Skippable: s.stats.reuse.Skippable - prev.reuse.Skippable,
			Skipped:   s.stats.reuse.Skipped - prev.reuse.Skipped,
		},
	}
}

// countStats publishes one takeStats delta to the metrics registry.
func (s *Scheduler) countStats(d runnerStats) {
	s.m.arrBuilt.Add(d.arr.Built)
	s.m.arrShared.Add(d.arr.SharedAttaches)
	s.m.arrFreed.Add(d.arr.Freed)
	if d.reuse.Skippable > 0 {
		s.reg.Counter("exec.reuse.skippable").Add(d.reuse.Skippable)
	}
	if d.reuse.Skipped > 0 {
		s.reg.Counter("exec.reuse.skipped").Add(d.reuse.Skipped)
	}
}

// New builds a scheduler over the graph with the given starting pace vector
// (one pace ≥ 1 per subplan, typically the optimizer's output) and window
// data source.
func New(g *mqo.Graph, paces []int, src Source, cfg Config) (*Scheduler, error) {
	if cfg.Window <= 0 {
		return nil, fmt.Errorf("sched: window %v is not positive", cfg.Window)
	}
	if cfg.Windows < 1 {
		return nil, fmt.Errorf("sched: %d windows", cfg.Windows)
	}
	if len(paces) != len(g.Subplans) {
		return nil, fmt.Errorf("sched: %d paces for %d subplans", len(paces), len(g.Subplans))
	}
	for i, p := range paces {
		if p < 1 {
			return nil, fmt.Errorf("sched: subplan %d has pace %d < 1", i, p)
		}
	}
	if len(cfg.Deadlines) != g.Plan.NumQueries() {
		return nil, fmt.Errorf("sched: %d deadlines for %d queries", len(cfg.Deadlines), g.Plan.NumQueries())
	}
	if rp := cfg.Recalibrate; rp != nil {
		switch {
		case rp.Model == nil:
			return nil, fmt.Errorf("sched: recalibration without a cost model")
		case cfg.Profile == nil:
			return nil, fmt.Errorf("sched: recalibration without a profiler")
		case rp.MaxPace < 1:
			return nil, fmt.Errorf("sched: recalibration max pace %d < 1", rp.MaxPace)
		case len(rp.Constraints) != g.Plan.NumQueries():
			return nil, fmt.Errorf("sched: recalibration has %d constraints for %d queries", len(rp.Constraints), g.Plan.NumQueries())
		}
	}
	if cfg.Clock == nil {
		cfg.Clock = RealClock{}
	}
	if cfg.LagThreshold == 0 {
		cfg.LagThreshold = cfg.Window / 10
	}
	if cfg.Workers < 0 {
		cfg.Workers = runtime.GOMAXPROCS(0)
	}
	if cfg.Metrics == nil {
		cfg.Metrics = metrics.NewRegistry()
	}
	if src == nil {
		return nil, fmt.Errorf("sched: nil source")
	}
	runner, err := exec.NewDeltaRunner(g, exec.DeltaDataset{})
	if err != nil {
		return nil, err
	}
	s := &Scheduler{
		cfg:    cfg,
		runner: runner,
		src:    src,
		clock:  cfg.Clock,
		reg:    cfg.Metrics,
		m:      newSchedMetrics(cfg.Metrics),
		paces:  append([]int(nil), paces...),
		prof:   cfg.Profile,
		ev:     cfg.Events,
		status: cfg.Status,
	}
	s.epoch = s.clock.Now()
	if tr := cfg.Tracer; tr != nil {
		s.tr = tr
		name := cfg.TraceName
		if name == "" {
			name = "sched"
		}
		s.tracePid = tr.Process(name)
		s.traceBase = tr.Since()
		tr.Thread(s.tracePid, 0, "windows")
	}
	s.sizeFor(g)
	return s, nil
}

// sizeFor (re)builds everything the scheduler keeps per subplan for graph
// g: window accumulators, alert streaks, per-subplan counters and tracer
// threads. Counters are registry-backed by name and created up front, so
// the per-window flush pays two atomic adds rather than a lookup plus key
// formatting, and a subplan id that survives a graft keeps accumulating
// into the same counter.
func (s *Scheduler) sizeFor(g *mqo.Graph) {
	n := len(g.Subplans)
	s.graph = g
	s.finish = make([]time.Time, n)
	s.spent = make([]time.Duration, n)
	s.streak = make([]int, n)
	s.win = make([]profile.Sample, n)
	s.subExecs = make([]*metrics.Counter, n)
	s.subWork = make([]*metrics.Counter, n)
	for i, sub := range g.Subplans {
		s.subExecs[i] = s.reg.Counter(fmt.Sprintf("sched.subplan.%d.executions", i))
		s.subWork[i] = s.reg.Counter(fmt.Sprintf("sched.subplan.%d.work", i))
		if s.tr != nil {
			s.tr.Thread(s.tracePid, 1+sub.ID, fmt.Sprintf("subplan %d", sub.ID))
		}
	}
}

// Run drives the configured number of windows to completion.
func (s *Scheduler) Run() (*Result, error) {
	for {
		more, err := s.Tick()
		if err != nil {
			return nil, err
		}
		if !more {
			return s.Result(), nil
		}
	}
}

// Tick executes the next firing group (every firing due at the same
// instant); when the group closes a window it also settles the window's
// deadlines and applies the degradation policy. It reports whether any work
// remains.
func (s *Scheduler) Tick() (bool, error) {
	if s.done {
		return false, nil
	}
	if s.firings == nil {
		if err := s.openWindow(); err != nil {
			return false, err
		}
	}
	group := exec.NextGroup(s.firings[s.pos:])
	s.runGroup(group)
	s.pos += len(group)
	if s.pos >= len(s.firings) {
		s.closeWindow()
		s.firings, s.pos = nil, 0
		s.window++
		if s.window >= s.cfg.Windows {
			s.res.FinalPaces = append([]int(nil), s.paces...)
			s.done = true
			if s.tr != nil {
				// End-state gauges, not deltas: published once, after the
				// last window closed.
				st := s.stats.arr
				s.tr.Count("exec.arr.live", int64(st.Live))
				s.tr.Count("exec.arr.handles", int64(st.Handles))
				s.tr.Count("exec.arr.multiuse", int64(st.MultiUse))
				s.tr.Count("exec.arr.entries", st.Entries)
				s.tr.Count("exec.arr.built", st.Built)
				s.tr.Count("exec.arr.shared_attaches", st.SharedAttaches)
			}
			return false, nil
		}
	}
	return true, nil
}

// Result returns the run summary accumulated so far (complete after Run, or
// after Tick reports no more work).
func (s *Scheduler) Result() *Result { return &s.res }

// Results returns query q's materialized result rows at the current point
// of the run.
func (s *Scheduler) Results(q int) []value.Row { return s.runner.Results(q) }

// Report returns the runner's cumulative modeled-work report: every
// execution so far, graft catch-up replays included (Result.TotalWork counts
// scheduled firings only).
func (s *Scheduler) Report() *exec.Report { return s.runner.ReportNow() }

// Snapshot returns the scheduler's metrics registry snapshot.
func (s *Scheduler) Snapshot() metrics.Snapshot { return s.reg.Snapshot() }

// Paces returns the pace vector currently in force (degradation may have
// coarsened the starting vector).
func (s *Scheduler) Paces() []int { return append([]int(nil), s.paces...) }

func (s *Scheduler) openWindow() error {
	fs, err := exec.Schedule(s.paces)
	if err != nil {
		return err
	}
	s.firings = fs
	s.pos = 0
	s.winStart = s.epoch.Add(time.Duration(s.window) * s.cfg.Window)
	s.runner.StartWindow(s.src.WindowData(s.window))
	winEnd := s.winStart.Add(s.cfg.Window)
	for i := range s.finish {
		// A subplan that somehow never fires completes at the trigger
		// point; every pace ≥ 1 fires at least once, overwriting this.
		s.finish[i] = winEnd
		s.spent[i] = 0
	}
	s.maxLag = 0
	return nil
}

// runGroup executes every firing due at one instant, Index/Pace of the way
// through the window. The runner fires the group in dependency waves with
// up to cfg.Workers goroutines per wave (exec.Runner.Fire), but clock time
// is charged in canonical order — firing order within the group — so
// schedules and metrics are identical at any worker count.
func (s *Scheduler) runGroup(group []exec.Firing) {
	f0 := group[0]
	due := s.winStart.Add(time.Duration(int64(s.cfg.Window) * int64(f0.Index) / int64(f0.Pace)))
	s.clock.WaitUntil(due)
	groupStart := s.clock.Now()
	if lag := groupStart.Sub(due); lag > s.maxLag {
		s.maxLag = lag
	}

	if len(s.works) < len(group) {
		s.works = make([]exec.Work, len(s.graph.Subplans))
		s.walls = make([]int64, len(s.graph.Subplans))
	}
	works := s.works[:len(group)]
	var walls []int64
	if s.prof != nil {
		walls = s.walls[:len(group)]
	}
	s.runner.Fire(group, s.cfg.Workers, works, walls)

	// Everything below is the canonical accounting loop, not the workers,
	// so every sink it feeds is worker-count-invariant.
	var groupWork int64
	t := groupStart
	for i, f := range group {
		d := s.workDuration(works[i])
		start := t
		t = t.Add(d)
		s.finish[f.Subplan] = t
		if !f.Final() {
			s.spent[f.Subplan] += d
		}
		w := works[i].Total()
		groupWork += w
		acc := &s.win[f.Subplan]
		acc.Firings++
		acc.Work += w
		if walls != nil {
			// Physical columns, measured only for the profiler. A group
			// fires each subplan at most once, so LastBatches still
			// describes this firing.
			acc.WallNS += walls[i]
			acc.Batches += s.runner.Execs[f.Subplan].LastBatches()
		}
		s.m.lag.Observe(float64(start.Sub(due)) / float64(time.Millisecond))
		if s.tr != nil {
			s.tr.Count("exec.executions", 1)
			s.tr.Count("exec.tuples", works[i].Tuples)
			s.tr.Count("exec.state", works[i].State)
			s.tr.Count("exec.output", works[i].Output)
			if works[i].Rescan > 0 {
				s.tr.Count("exec.rescans", 1)
				s.tr.Count("exec.rescan_work", works[i].Rescan)
			}
			s.tr.Span(s.tracePid, 1+f.Subplan, "sched",
				fmt.Sprintf("fire %d/%d", f.Index, f.Pace),
				s.traceBase+start.Sub(s.epoch), s.traceBase+t.Sub(s.epoch),
				trace.Arg{Key: "window", Value: s.window},
				trace.Arg{Key: "due", Value: due.Sub(s.epoch)},
				trace.Arg{Key: "work", Value: w})
		}
		if s.cfg.Trace {
			s.res.Trace = append(s.res.Trace, FiringRecord{
				Window:  s.window,
				Subplan: f.Subplan,
				Index:   f.Index,
				Pace:    f.Pace,
				Due:     due.Sub(s.epoch),
				Start:   start.Sub(s.epoch),
				Finish:  t.Sub(s.epoch),
				Work:    w,
			})
		}
	}
	s.res.TotalWork += groupWork
	s.m.execs.Add(int64(len(group)))
	s.m.work.Add(groupWork)
	s.clock.WaitUntil(t)
	if s.cfg.WorkRate <= 0 {
		// Pure measured mode: completion is whatever the clock says after
		// the group actually ran.
		now := s.clock.Now()
		for _, f := range group {
			s.finish[f.Subplan] = now
		}
	}
}

func (s *Scheduler) workDuration(w exec.Work) time.Duration {
	if s.cfg.WorkRate <= 0 {
		return 0
	}
	return time.Duration(float64(w.Total()) / s.cfg.WorkRate * float64(time.Second))
}

// closeWindow settles the window into one record — WindowStats, the
// per-subplan accumulator s.win, the profiler's drift alerts and one
// arrangement/reuse snapshot — and then hands that record to each sink in
// turn: metrics, tracer, event log, Result, status board. No sink re-derives
// a fact another one was given.
func (s *Scheduler) closeWindow() {
	winEnd := s.winStart.Add(s.cfg.Window)
	ws := WindowStats{
		Window: s.window,
		Paces:  append([]int(nil), s.paces...),
		MaxLag: s.maxLag,
	}
	for _, acc := range s.win {
		ws.Executions += acc.Firings
		ws.Work += acc.Work
	}
	nq := s.graph.Plan.NumQueries()
	ws.QuerySlack = make([]time.Duration, nq)
	for q := 0; q < nq; q++ {
		completion := winEnd
		for _, sub := range s.graph.QuerySubplans(q) {
			if s.finish[sub.ID].After(completion) {
				completion = s.finish[sub.ID]
			}
		}
		slack := winEnd.Add(s.cfg.Deadlines[q]).Sub(completion)
		ws.QuerySlack[q] = slack
		if slack >= 0 {
			ws.Met++
		} else {
			ws.Missed++
		}
	}
	s.res.Met += ws.Met
	s.res.Missed += ws.Missed
	ws.Overloaded = ws.Missed > 0 || s.maxLag > s.cfg.LagThreshold
	// Drift settles before the degradation check so a recalibration —
	// which retunes the model the paces came from — can preempt the blunt
	// pace-halving response in the window that triggers it.
	_, alerts := s.prof.FlushWindow(s.window, s.win)
	ws.Recalibrated = s.maybeRecalibrate(alerts)
	if ws.Overloaded && !s.cfg.DisableDegradation && ws.Recalibrated == nil {
		if d := s.degrade(ws.QuerySlack); d != nil {
			d.Window = s.window
			ws.Degraded = d
			s.res.Decisions = append(s.res.Decisions, *d)
		}
	}
	delta := s.takeStats()

	s.countWindow(&ws, delta)
	if s.tr != nil {
		s.traceWindow(&ws, winEnd)
	}
	if s.ev.Enabled() {
		s.emitWindow(&ws, alerts, delta, winEnd.Sub(s.epoch).Nanoseconds())
	}
	s.res.Windows = append(s.res.Windows, ws)
	if s.status != nil {
		s.status.Publish(s.buildStatus(ws))
	}
	clear(s.win)
}

// countWindow renders a closed window into the metrics registry. The gauges
// are set in profiled and unprofiled runs alike, so enabling observability
// never changes a metrics snapshot (the observer-effect regression test pins
// this).
func (s *Scheduler) countWindow(ws *WindowStats, delta runnerStats) {
	for i, acc := range s.win {
		if acc.Firings > 0 {
			s.subExecs[i].Add(int64(acc.Firings))
			s.subWork[i].Add(acc.Work)
		}
	}
	for _, slack := range ws.QuerySlack {
		s.m.slack.Observe(float64(slack) / float64(time.Millisecond))
	}
	s.m.windows.Inc()
	s.m.met.Add(int64(ws.Met))
	s.m.missed.Add(int64(ws.Missed))
	if ws.Overloaded {
		s.reg.Counter("sched.overloaded_windows").Inc()
	}
	if d := ws.Degraded; d != nil {
		s.reg.Counter("sched.degrade_total").Inc()
		s.reg.Counter(fmt.Sprintf("sched.degrade.subplan.%d", d.Subplan)).Inc()
	}
	if rec := ws.Recalibrated; rec != nil {
		s.reg.Counter("sched.recalibrations").Inc()
		s.reg.Gauge("sched.last_recalibration_window").Set(float64(rec.Window))
	}
	s.m.window.Set(float64(ws.Window))
	s.m.liveQueries.Set(float64(len(ws.QuerySlack)))
	s.m.lastMaxLag.Set(float64(ws.MaxLag) / float64(time.Millisecond))
	s.countStats(delta)
}

// traceWindow renders a closed window onto the tracer's control track: one
// deadline-settlement instant per query, the window's degradation or
// recalibration decision, and the window span.
func (s *Scheduler) traceWindow(ws *WindowStats, winEnd time.Time) {
	end := s.traceBase + winEnd.Sub(s.epoch)
	for q, slack := range ws.QuerySlack {
		// The query completed slack before its deadline.
		s.tr.Instant(s.tracePid, 0, "deadline", fmt.Sprintf("query %d", q),
			end+s.cfg.Deadlines[q]-slack,
			trace.Arg{Key: "window", Value: ws.Window},
			trace.Arg{Key: "slack", Value: slack},
			trace.Arg{Key: "met", Value: slack >= 0})
	}
	if d := ws.Degraded; d != nil {
		s.tr.DecideAt(s.tracePid, 0, end, trace.Decision{
			Phase: "sched.degrade", Step: len(s.res.Decisions),
			Subplan: d.Subplan, Action: "halve_pace",
			Score: float64(d.Spent) / float64(time.Millisecond), Accepted: true,
			Detail: fmt.Sprintf("window %d overloaded: pace %d -> %d, %d ancestors clamped",
				ws.Window, d.OldPace, d.NewPace, len(d.Clamped)),
		})
	}
	if rec := ws.Recalibrated; rec != nil {
		s.tr.DecideAt(s.tracePid, 0, end, trace.Decision{
			Phase: "sched.recalibrate", Step: len(s.res.Recalibrations),
			Subplan: rec.Subplans[0], Action: "recalibrate",
			Score: rec.Drifts[0], Accepted: true,
			Detail: fmt.Sprintf("window %d: %d subplans drifted, paces %v -> %v (%d memo entries adopted, %d evals)",
				rec.Window, len(rec.Subplans), rec.OldPaces, rec.NewPaces, rec.Adopted, rec.Evals),
		})
	}
	s.tr.Span(s.tracePid, 0, "sched", fmt.Sprintf("window %d", ws.Window),
		s.traceBase+s.winStart.Sub(s.epoch), end,
		trace.Arg{Key: "executions", Value: ws.Executions},
		trace.Arg{Key: "work", Value: ws.Work},
		trace.Arg{Key: "met", Value: ws.Met},
		trace.Arg{Key: "missed", Value: ws.Missed},
		trace.Arg{Key: "max_lag", Value: ws.MaxLag},
		trace.Arg{Key: "overloaded", Value: ws.Overloaded})
}

// emitWindow renders a closed window onto the event log, in a fixed order:
// drift alerts, the degradation decision, the recalibration (one
// cost.recalibrate per drifting subplan, then the warm pace.research),
// arrangement lifecycle deltas, reuse skips, and the window close. All
// content is deterministic: drift EWMAs are pure functions of modeled work.
func (s *Scheduler) emitWindow(ws *WindowStats, alerts []profile.Alert, delta runnerStats, atNS int64) {
	for _, a := range alerts {
		s.ev.Emit("drift.alert", atNS, a.Window, a.Subplan, -1, map[string]interface{}{
			"drift": a.Drift, "modeled": a.Modeled, "work": a.Work,
		})
	}
	if d := ws.Degraded; d != nil {
		s.ev.Emit("sched.degrade", atNS, ws.Window, d.Subplan, -1, map[string]interface{}{
			"old_pace": d.OldPace, "new_pace": d.NewPace,
			"clamped": len(d.Clamped), "spent_ns": int64(d.Spent),
		})
	}
	if rec := ws.Recalibrated; rec != nil {
		for i, id := range rec.Subplans {
			s.ev.Emit("cost.recalibrate", atNS, rec.Window, id, -1, map[string]interface{}{
				"drift": rec.Drifts[i],
			})
		}
		s.ev.Emit("pace.research", atNS, rec.Window, -1, -1, map[string]interface{}{
			"adopted": rec.Adopted, "steps": rec.Steps, "evals": rec.Evals,
			"old_paces": fmt.Sprint(rec.OldPaces), "new_paces": fmt.Sprint(rec.NewPaces),
		})
	}
	if arr := delta.arr; arr.Built != 0 || arr.SharedAttaches != 0 || arr.Freed != 0 {
		s.ev.Emit("arrangements", atNS, ws.Window, -1, -1, map[string]interface{}{
			"built": arr.Built, "shared_attaches": arr.SharedAttaches, "freed": arr.Freed,
		})
	}
	if delta.reuse.Skippable > 0 {
		// Only the deterministic skippable count goes on the log: the
		// physical skipped count depends on the ISHARE_REUSE knob, and the
		// event log must stay byte-identical with reuse on or off.
		s.ev.Emit("reuse.skip", atNS, ws.Window, -1, -1, map[string]interface{}{
			"skippable": delta.reuse.Skippable,
		})
	}
	s.ev.Emit("window.close", atNS, ws.Window, -1, -1, map[string]interface{}{
		"executions": ws.Executions, "work": ws.Work,
		"met": ws.Met, "missed": ws.Missed,
		"max_lag_ns": int64(ws.MaxLag), "overloaded": ws.Overloaded,
	})
}
