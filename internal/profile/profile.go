// Package profile is the closed-loop measurement substrate between the
// scheduler runtime and the cost model: it collects, per subplan per trigger
// window, an execution profile {modeled baseline work, observed modeled
// work, measured wall time, firings, vectorized batch count} into a bounded
// ring, maintains an observed/modeled drift EWMA per subplan, and raises an
// Alert whenever a subplan's drift leaves the configured band. ROADMAP item
// 5 (online recalibration and drift-triggered pace re-search) consumes this
// layer; today the profiles feed the event log, the statusz endpoint and the
// ishare facade.
//
// Determinism: the profiler owns no per-firing state. The scheduler keeps
// one per-subplan window accumulator (a []Sample filled once per firing in
// its canonical accounting loop, never on worker goroutines) and hands it to
// FlushWindow at window close. Drift is a pure function of modeled work
// counts — the observed side is the engine's deterministic Work units, not
// wall time — so profiles, EWMAs and alerts are byte-identical at any worker
// count and reproducible on a VirtualClock. Measured wall nanoseconds ride
// along as an extra field; they are the one nondeterministic column and are
// never part of drift or of golden logs.
//
// A nil *Profiler is the disabled profiler: every method no-ops behind a
// single pointer check and allocates nothing, following the tracer's
// zero-cost-when-disabled discipline.
package profile

import "math"

// Sample is one subplan's profile for one closed trigger window.
type Sample struct {
	// Window is the trigger window index (scheduler numbering).
	Window int `json:"window"`
	// Subplan is the subplan id within the plan revision.
	Subplan int `json:"subplan"`
	// Modeled is the baseline work the cost model predicts for this
	// subplan in one window (0 when no baseline is configured — drift is
	// not updated from such windows).
	Modeled float64 `json:"modeled"`
	// Work is the observed modeled work: the engine's deterministic Work
	// units summed over the window's firings.
	Work int64 `json:"work"`
	// WallNS is the measured wall time of the window's firings in
	// nanoseconds, captured on the executing workers. Nondeterministic;
	// informational only.
	WallNS int64 `json:"wall_ns"`
	// Firings counts the incremental executions in the window.
	Firings int `json:"firings"`
	// Batches counts the vectorized chunks the firings processed.
	Batches int64 `json:"batches"`
	// Drift is the subplan's observed/modeled EWMA after this window
	// (0 until a window with a positive baseline has been observed).
	Drift float64 `json:"drift"`
}

// Alert is one drift-detector event: a subplan whose observed/modeled EWMA
// left [1/Bound, Bound] at a window close.
type Alert struct {
	Window  int `json:"window"`
	Subplan int `json:"subplan"`
	// Drift is the EWMA that tripped the bound.
	Drift float64 `json:"drift"`
	// Modeled and Work are the tripping window's baseline and observation.
	Modeled float64 `json:"modeled"`
	Work    int64   `json:"work"`
}

// Config parameterizes a Profiler.
type Config struct {
	// Subplans is the plan's subplan count (required, ≥ 1).
	Subplans int
	// Modeled is the per-subplan baseline work per window — typically the
	// cost model's Eval.SubTotal under the scheduled pace vector. May be
	// nil (no drift detection until SetModeled).
	Modeled []float64
	// ModeledAt, when non-nil, overrides Modeled with a per-window
	// baseline — e.g. a matrix measured by a prior calibration run.
	ModeledAt func(window, subplan int) float64
	// Bound is the drift band: an alert fires when a subplan's EWMA
	// exceeds Bound or falls below 1/Bound. Defaults to 2. Bounds ≤ 1
	// are rejected by New.
	Bound float64
	// Alpha is the EWMA weight of the newest window's ratio, in (0, 1].
	// Defaults to 0.5; 1 tracks the latest window only.
	Alpha float64
	// Capacity bounds the profile ring in samples; defaults to 512.
	Capacity int
}

// Profiler records per-subplan window profiles. All methods must be
// called from one goroutine (the scheduler's canonical accounting loop);
// nil receivers no-op.
type Profiler struct {
	cfg Config

	// ewma is the per-subplan drift EWMA; NaN marks "no observation with a
	// baseline yet".
	ewma []float64

	ring  []Sample // circular once full; the oldest entry sits at rpos
	rpos  int
	total int // samples ever recorded (diagnostics)

	alerts []Alert // every alert raised, in order
}

// New builds a profiler. Subplans must be ≥ 1; a Modeled slice, when given,
// must have one entry per subplan.
func New(cfg Config) *Profiler {
	if cfg.Subplans < 1 {
		return nil
	}
	if cfg.Modeled != nil && len(cfg.Modeled) != cfg.Subplans {
		return nil
	}
	if cfg.Bound == 0 {
		cfg.Bound = 2
	}
	if cfg.Bound <= 1 {
		return nil
	}
	if cfg.Alpha == 0 {
		cfg.Alpha = 0.5
	}
	if cfg.Alpha < 0 || cfg.Alpha > 1 {
		return nil
	}
	if cfg.Capacity <= 0 {
		cfg.Capacity = 512
	}
	p := &Profiler{cfg: cfg, ring: make([]Sample, 0, cfg.Capacity)}
	p.size(cfg.Subplans)
	return p
}

// size (re)allocates the per-subplan drift state for n subplans, preserving
// the EWMA of subplan ids that survive (plan grafts keep subplan ids
// slot-stable, so a surviving id is the same logical subplan).
func (p *Profiler) size(n int) {
	e := make([]float64, n)
	for i := range e {
		e[i] = math.NaN()
	}
	copy(e, p.ewma)
	p.ewma = e
}

// Enabled reports whether the profiler records anything.
func (p *Profiler) Enabled() bool { return p != nil }

// Subplans returns the profiled subplan count (0 when disabled).
func (p *Profiler) Subplans() int {
	if p == nil {
		return 0
	}
	return p.cfg.Subplans
}

// modeledAt resolves the baseline for one subplan in one window.
func (p *Profiler) modeledAt(window, subplan int) float64 {
	if p.cfg.ModeledAt != nil {
		return p.cfg.ModeledAt(window, subplan)
	}
	if p.cfg.Modeled != nil {
		return p.cfg.Modeled[subplan]
	}
	return 0
}

// FlushWindow closes the window from obs, the window's per-subplan
// accumulator indexed by subplan id (Firings, Work, WallNS and Batches
// summed over the window's firings; other fields are ignored). For every
// subplan that fired it records a Sample into the ring and — when the
// window has a positive baseline — folds the window's observed/modeled
// ratio into the subplan's drift EWMA, raising an Alert if the EWMA leaves
// [1/Bound, Bound]. It returns the window's samples (valid until the next
// flush overwrites the ring) and the alerts raised. obs is only read. Nil
// receivers return nothing.
func (p *Profiler) FlushWindow(window int, obs []Sample) ([]Sample, []Alert) {
	if p == nil {
		return nil, nil
	}
	firstAlert := len(p.alerts)
	var first, n int = -1, 0
	for sub, o := range obs[:min(len(obs), len(p.ewma))] {
		if o.Firings == 0 {
			continue
		}
		modeled := p.modeledAt(window, sub)
		if modeled > 0 {
			ratio := float64(o.Work) / modeled
			if math.IsNaN(p.ewma[sub]) {
				p.ewma[sub] = ratio
			} else {
				p.ewma[sub] = p.cfg.Alpha*ratio + (1-p.cfg.Alpha)*p.ewma[sub]
			}
			if e := p.ewma[sub]; e > p.cfg.Bound || e < 1/p.cfg.Bound {
				p.alerts = append(p.alerts, Alert{
					Window: window, Subplan: sub,
					Drift: e, Modeled: modeled, Work: o.Work,
				})
			}
		}
		at := p.push(Sample{
			Window:  window,
			Subplan: sub,
			Modeled: modeled,
			Work:    o.Work,
			WallNS:  o.WallNS,
			Firings: o.Firings,
			Batches: o.Batches,
			Drift:   p.Drift(sub),
		})
		if first < 0 {
			first = at
		}
		n++
	}
	var out []Sample
	if n > 0 {
		// The window's samples were pushed contiguously; re-slice them out
		// of the ring (they may wrap, so copy only in that rare case).
		if first+n <= len(p.ring) {
			out = p.ring[first : first+n]
		} else {
			out = make([]Sample, 0, n)
			out = append(out, p.ring[first:]...)
			out = append(out, p.ring[:n-(len(p.ring)-first)]...)
		}
	}
	return out, p.alerts[firstAlert:]
}

// push appends one sample to the ring, overwriting the oldest entry when
// full, and returns the index it landed at.
func (p *Profiler) push(s Sample) int {
	p.total++
	at := p.rpos
	if len(p.ring) < cap(p.ring) {
		p.ring = append(p.ring, s)
	} else {
		p.ring[at] = s
	}
	p.rpos = (at + 1) % cap(p.ring)
	return at
}

// Samples returns the retained profiles in chronological order (oldest
// first). The slice is freshly allocated.
func (p *Profiler) Samples() []Sample {
	if p == nil || len(p.ring) == 0 {
		return nil
	}
	// Before the ring wraps, rpos is 0 or its length, so one of the two
	// appends is empty.
	out := make([]Sample, 0, len(p.ring))
	out = append(out, p.ring[p.rpos:]...)
	return append(out, p.ring[:p.rpos]...)
}

// Recorded returns how many samples were ever recorded, including those the
// bounded ring has since evicted.
func (p *Profiler) Recorded() int {
	if p == nil {
		return 0
	}
	return p.total
}

// Drift returns a subplan's current observed/modeled EWMA, or 0 before any
// window with a positive baseline has been observed.
func (p *Profiler) Drift(subplan int) float64 {
	if p == nil || subplan < 0 || subplan >= len(p.ewma) || math.IsNaN(p.ewma[subplan]) {
		return 0
	}
	return p.ewma[subplan]
}

// Drifts returns every subplan's drift EWMA (0 for unobserved subplans).
func (p *Profiler) Drifts() []float64 {
	if p == nil {
		return nil
	}
	out := make([]float64, p.cfg.Subplans)
	for i := range out {
		out[i] = p.Drift(i)
	}
	return out
}

// Alerts returns every alert raised so far, in order.
func (p *Profiler) Alerts() []Alert {
	if p == nil {
		return nil
	}
	return append([]Alert(nil), p.alerts...)
}

// SetModeled replaces the static per-subplan baseline — the closed loop's
// recalibration entry point, also used after a degradation or graft changes
// the pace vector. The slice length must match the current subplan count;
// mismatches are ignored. ModeledAt, when configured, still wins.
func (p *Profiler) SetModeled(modeled []float64) {
	if p == nil || (modeled != nil && len(modeled) != p.cfg.Subplans) {
		return
	}
	p.cfg.Modeled = append([]float64(nil), modeled...)
}

// Rebase installs a new per-subplan baseline and resets every drift EWMA to
// unobserved — the recalibration entry point. SetModeled alone would keep
// folding post-recalibration ratios into an EWMA still dominated by the
// drifted history, re-raising alerts for windows while the average decays;
// after a recalibration the corrected model is the new normal, so drift
// tracking restarts from scratch against it. ModeledAt, when configured,
// still wins (matrix-driven tests pin their own baselines).
func (p *Profiler) Rebase(modeled []float64) {
	if p == nil || (modeled != nil && len(modeled) != p.cfg.Subplans) {
		return
	}
	p.cfg.Modeled = append([]float64(nil), modeled...)
	for i := range p.ewma {
		p.ewma[i] = math.NaN()
	}
}

// Graft resizes the profiler to a new plan revision with n subplans and
// clears the baseline, so drift updates pause until the caller supplies the
// new revision's baseline with SetModeled. Surviving subplan ids keep their
// drift EWMA — graft keeps ids slot-stable — while ids beyond the new count
// are dropped and brand-new ids start unobserved.
func (p *Profiler) Graft(n int) {
	if p == nil || n < 1 {
		return
	}
	p.cfg.Subplans = n
	p.size(n)
	p.cfg.Modeled = nil
}
