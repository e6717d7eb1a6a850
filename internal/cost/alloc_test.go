//go:build !race

package cost

import "testing"

// TestSimulationAllocsIndependentOfPace is the allocation gate of the
// simulator: for every subplan of the 22-query TPC-H graph, one simulation
// allocates the same at pace 40 as at pace 1, so nothing allocates per
// simulated execution. It covers the model's pooled path and the
// standalone SimulateSubplanOps path decomposition uses. (Race
// instrumentation adds allocations of its own, hence the build tag.)
func TestSimulationAllocsIndependentOfPace(t *testing.T) {
	g := goldenTPCHGraph(t)
	m := NewModel(g)
	outs, err := m.OutputProfiles(ones(len(g.Subplans)))
	if err != nil {
		t.Fatal(err)
	}
	for _, s := range g.Subplans {
		inputs := m.inputsFor(s, outs)
		allocs := func(pace int) (model, standalone float64) {
			model = testing.AllocsPerRun(20, func() { m.simulate(s, pace, outs, false) })
			standalone = testing.AllocsPerRun(20, func() { SimulateSubplanOps(s, pace, inputs, true) })
			return model, standalone
		}
		m1, s1 := allocs(1)
		m40, s40 := allocs(40)
		if m1 != m40 {
			t.Errorf("subplan %d: model simulation allocates %v at pace 1, %v at pace 40", s.ID, m1, m40)
		}
		if s1 != s40 {
			t.Errorf("subplan %d: standalone simulation allocates %v at pace 1, %v at pace 40", s.ID, s1, s40)
		}
	}
}
