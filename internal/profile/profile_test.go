package profile

import (
	"math"
	"testing"
)

func TestNewRejectsInvalidConfig(t *testing.T) {
	cases := []Config{
		{},                                   // no subplans
		{Subplans: 0},                        // explicit zero
		{Subplans: 2, Modeled: []float64{1}}, // baseline length mismatch
		{Subplans: 1, Bound: 0.5},            // bound ≤ 1
		{Subplans: 1, Bound: 1},              // bound ≤ 1
		{Subplans: 1, Alpha: 1.5},            // alpha outside (0, 1]
		{Subplans: 1, Alpha: -0.1},
	}
	for i, cfg := range cases {
		if p := New(cfg); p != nil {
			t.Errorf("case %d: New(%+v) accepted an invalid config", i, cfg)
		}
	}
	if p := New(Config{Subplans: 3}); p == nil {
		t.Fatal("New rejected a minimal valid config")
	}
}

// fire returns an n-subplan window accumulator in which subplan sub fired
// once with the given work.
func fire(n, sub int, work int64) []Sample {
	obs := make([]Sample, n)
	obs[sub] = Sample{Firings: 1, Work: work}
	return obs
}

func TestDriftEWMAAndAlerts(t *testing.T) {
	p := New(Config{Subplans: 2, Modeled: []float64{100, 100}, Alpha: 0.5, Bound: 2})

	// Window 0: ratio exactly 1 → EWMA seeds at 1, no alert.
	samples, alerts := p.FlushWindow(0, []Sample{{Firings: 1, Work: 100, WallNS: 7, Batches: 3}, {}})
	if len(alerts) != 0 {
		t.Fatalf("window 0: unexpected alerts %+v", alerts)
	}
	if len(samples) != 1 {
		t.Fatalf("window 0: %d samples, want 1", len(samples))
	}
	s := samples[0]
	if s.Window != 0 || s.Subplan != 0 || s.Modeled != 100 || s.Work != 100 || s.WallNS != 7 || s.Firings != 1 || s.Batches != 3 {
		t.Errorf("window 0 sample = %+v", s)
	}
	if got := p.Drift(0); got != 1 {
		t.Errorf("drift after window 0 = %v, want 1", got)
	}

	// Window 1: ratio 3 → EWMA 0.5·3 + 0.5·1 = 2, not strictly above the
	// bound yet.
	if _, alerts := p.FlushWindow(1, fire(2, 0, 300)); len(alerts) != 0 {
		t.Fatalf("window 1: unexpected alerts %+v", alerts)
	}
	if got := p.Drift(0); got != 2 {
		t.Errorf("drift after window 1 = %v, want 2", got)
	}

	// Window 2: ratio 3 again → EWMA 2.5 > 2 → alert.
	_, alerts = p.FlushWindow(2, fire(2, 0, 300))
	if len(alerts) != 1 {
		t.Fatalf("window 2: alerts = %+v, want exactly one", alerts)
	}
	a := alerts[0]
	if a.Window != 2 || a.Subplan != 0 || a.Drift != 2.5 || a.Modeled != 100 || a.Work != 300 {
		t.Errorf("alert = %+v", a)
	}
	if got := p.Alerts(); len(got) != 1 || got[0] != a {
		t.Errorf("Alerts() = %+v", got)
	}

	// Subplan 1 never fired: no drift, no samples.
	if got := p.Drift(1); got != 0 {
		t.Errorf("unfired subplan drift = %v, want 0", got)
	}
}

func TestUndershootAlert(t *testing.T) {
	p := New(Config{Subplans: 1, Modeled: []float64{100}, Alpha: 1, Bound: 2})
	if _, alerts := p.FlushWindow(0, fire(1, 0, 10)); len(alerts) != 1 {
		t.Fatalf("undershoot did not alert: %+v", alerts)
	}
}

func TestNoBaselineNoDrift(t *testing.T) {
	p := New(Config{Subplans: 1})
	samples, alerts := p.FlushWindow(0, fire(1, 0, 500))
	if len(alerts) != 0 {
		t.Fatalf("alerts without a baseline: %+v", alerts)
	}
	if len(samples) != 1 || samples[0].Modeled != 0 || samples[0].Drift != 0 {
		t.Fatalf("samples = %+v", samples)
	}
	p.SetModeled([]float64{500})
	if _, alerts := p.FlushWindow(1, fire(1, 0, 500)); len(alerts) != 0 {
		t.Fatalf("calibrated window alerted: %+v", alerts)
	}
	if got := p.Drift(0); got != 1 {
		t.Errorf("drift = %v, want 1", got)
	}
}

func TestModeledAtOverridesModeled(t *testing.T) {
	p := New(Config{
		Subplans:  1,
		Modeled:   []float64{1}, // would make ratio 100
		ModeledAt: func(window, subplan int) float64 { return 100 },
	})
	if _, alerts := p.FlushWindow(0, fire(1, 0, 100)); len(alerts) != 0 {
		t.Fatalf("ModeledAt did not win over Modeled: %+v", alerts)
	}
}

func TestRingEviction(t *testing.T) {
	p := New(Config{Subplans: 1, Capacity: 4})
	for w := 0; w < 6; w++ {
		p.FlushWindow(w, fire(1, 0, int64(w+1)))
	}
	if got := p.Recorded(); got != 6 {
		t.Errorf("Recorded() = %d, want 6", got)
	}
	samples := p.Samples()
	if len(samples) != 4 {
		t.Fatalf("Samples() kept %d, want 4", len(samples))
	}
	for i, s := range samples {
		if s.Window != i+2 {
			t.Errorf("sample %d is window %d, want %d (oldest evicted, chronological order)", i, s.Window, i+2)
		}
	}
}

func TestFlushReturnsOnlyFiredSubplans(t *testing.T) {
	p := New(Config{Subplans: 3})
	obs := fire(3, 0, 10)
	obs[2] = Sample{Firings: 1, Work: 30}
	samples, _ := p.FlushWindow(0, obs)
	if len(samples) != 2 || samples[0].Subplan != 0 || samples[1].Subplan != 2 {
		t.Fatalf("samples = %+v", samples)
	}
	// A window in which nothing fired records nothing.
	if samples, _ := p.FlushWindow(1, make([]Sample, 3)); len(samples) != 0 {
		t.Fatalf("empty window produced samples: %+v", samples)
	}
}

func TestGraftPreservesSurvivingEWMA(t *testing.T) {
	p := New(Config{Subplans: 3, Modeled: []float64{100, 100, 100}, Alpha: 1})
	obs := make([]Sample, 3)
	for sub := range obs {
		obs[sub] = Sample{Firings: 1, Work: int64(100 * (sub + 1))}
	}
	p.FlushWindow(0, obs)

	p.Graft(2) // shrink: subplan 2 dropped
	if got := p.Subplans(); got != 2 {
		t.Fatalf("Subplans() after shrink = %d", got)
	}
	if d := p.Drifts(); len(d) != 2 || d[0] != 1 || d[1] != 2 {
		t.Fatalf("Drifts() after shrink = %v", d)
	}

	p.Graft(4) // grow, then rebase on a fresh baseline
	p.SetModeled([]float64{100, 100, 100, 100})
	d := p.Drifts()
	if len(d) != 4 || d[0] != 1 || d[1] != 2 || d[2] != 0 || d[3] != 0 {
		t.Fatalf("Drifts() after grow = %v", d)
	}
	// New ids start unobserved; survivors keep folding into their EWMA.
	if _, alerts := p.FlushWindow(1, fire(4, 3, 100)); len(alerts) != 0 {
		t.Fatalf("fresh id alerted on a calibrated window: %+v", alerts)
	}
	if got := p.Drift(3); got != 1 {
		t.Errorf("fresh id drift = %v, want 1", got)
	}
}

func TestNilProfilerNoOps(t *testing.T) {
	var p *Profiler
	if p.Enabled() {
		t.Error("nil profiler reports enabled")
	}
	obs := fire(1, 0, 1)
	if s, a := p.FlushWindow(0, obs); s != nil || a != nil {
		t.Error("nil FlushWindow returned data")
	}
	if p.Samples() != nil || p.Alerts() != nil || p.Drifts() != nil {
		t.Error("nil accessors returned data")
	}
	if p.Drift(0) != 0 || p.Subplans() != 0 || p.Recorded() != 0 {
		t.Error("nil scalars non-zero")
	}
	p.SetModeled([]float64{1})
	p.Graft(2)

	if allocs := testing.AllocsPerRun(100, func() {
		p.FlushWindow(0, obs)
		_ = p.Drift(0)
	}); allocs != 0 {
		t.Errorf("nil profiler allocates %v per run, want 0", allocs)
	}
}

func TestDriftNaNGuard(t *testing.T) {
	p := New(Config{Subplans: 1, Modeled: []float64{100}})
	if d := p.Drift(0); d != 0 || math.IsNaN(d) {
		t.Errorf("unobserved drift = %v, want 0", d)
	}
	if d := p.Drift(99); d != 0 {
		t.Errorf("out-of-range drift = %v, want 0", d)
	}
}
