package exec

import (
	"fmt"
	"reflect"
	"testing"

	"ishare/internal/mqo"
	"ishare/internal/plan"
)

// TestGraftScansUnobservedTable grafts a lineitem-only plan onto one that
// also scans part, after several windows in which part arrived without any
// subplan reading it — including a window with no part rows and a window
// with no rows at all. The rebuilt subplans must replay part's history
// window by window, so every active query's results and the cumulative
// work report equal a fresh runner of the final plan fed the same windows
// (the check the churn oracle makes), with reuse on and off and with
// transplant on and off.
func TestGraftScansUnobservedTable(t *testing.T) {
	h := newHarness(t, map[string]string{
		"agg":  "SELECT l_partkey, SUM(l_quantity) AS sq FROM lineitem GROUP BY l_partkey",
		"join": "SELECT p_brand, l_quantity FROM part, lineitem WHERE p_partkey = l_partkey AND p_size > 2",
	}, []string{"agg", "join"})
	build := func(qs ...plan.Query) *mqo.Graph {
		sp, err := mqo.Build(qs)
		if err != nil {
			t.Fatal(err)
		}
		g, err := mqo.Extract(sp)
		if err != nil {
			t.Fatal(err)
		}
		return g
	}
	// win builds window k's arrivals afresh on every call, so no two
	// runners ever hold the same dataset.
	win := func(k int) DeltaDataset {
		li := lineitemRows([2]int64{int64(k % 3), int64(k + 1)}, [2]int64{int64(k%3 + 1), 2})
		pa := partRows([3]interface{}{k % 3, fmt.Sprintf("b%d", k), k}, [3]interface{}{k%3 + 1, "z", 5})
		switch k {
		case 1: // lineitem only
			return InsertStream(Dataset{"lineitem": li})
		case 3: // nothing at all
			return DeltaDataset{}
		case 5: // part only
			return InsertStream(Dataset{"part": pa})
		}
		return InsertStream(Dataset{"lineitem": li, "part": pa})
	}
	const graftAt, windows = 4, 7

	finalG := build(h.queries...)
	for _, reuse := range []bool{true, false} {
		for _, disable := range []bool{false, true} {
			t.Run(fmt.Sprintf("reuse=%v/replay=%v", reuse, disable), func(t *testing.T) {
				opts := EnvOptions()
				opts.Reuse = reuse

				ref, err := New(finalG, DeltaDataset{}, opts)
				if err != nil {
					t.Fatal(err)
				}
				for k := 0; k < windows; k++ {
					ref.StartWindow(win(k))
					runUniform(t, ref, 1)
				}

				// The construction dataset is window 0.
				r, err := New(build(h.queries[0]), win(0), opts)
				if err != nil {
					t.Fatal(err)
				}
				runUniform(t, r, 1)
				for k := 1; k < windows; k++ {
					if k == graftAt {
						gs, err := r.Graft(finalG, GraftOptions{DisableTransplant: disable})
						if err != nil {
							t.Fatal(err)
						}
						if gs.Rebuilt == 0 || gs.Replayed != gs.Rebuilt*graftAt {
							t.Errorf("graft stats %+v: want every rebuilt subplan replayed through %d windows", gs, graftAt)
						}
					}
					r.StartWindow(win(k))
					runUniform(t, r, 1)
				}

				if len(ref.Results(1)) == 0 {
					t.Fatal("join query produced no rows; the test would not see a missing part history")
				}
				for q := range h.queries {
					if got, want := r.SortedResults(q), ref.SortedResults(q); !reflect.DeepEqual(got, want) {
						t.Errorf("query %d results = %v, want %v", q, got, want)
					}
				}
				if got, want := r.ReportNow(), ref.ReportNow(); !reflect.DeepEqual(got, want) {
					t.Errorf("report = %+v, want %+v", got, want)
				}
			})
		}
	}
}
