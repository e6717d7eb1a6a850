package tpch

import (
	"reflect"
	"sort"
	"strconv"
	"strings"
	"testing"

	"ishare/internal/exec"
	"ishare/internal/mqo"
	"ishare/internal/value"
)

// roundedResults renders a query's rows with floats rounded to nine
// significant digits: different pace configurations interleave the
// symmetric join's outputs differently, so float summation order (and with
// it the lowest bits) legitimately varies.
func roundedResults(r *exec.Runner, q int) []string {
	rows := r.Results(q)
	out := make([]string, len(rows))
	for i, row := range rows {
		parts := make([]string, len(row))
		for j, v := range row {
			if v.K == value.KindFloat {
				parts[j] = strconv.FormatFloat(v.F, 'g', 9, 64)
			} else {
				parts[j] = v.String()
			}
		}
		out[i] = strings.Join(parts, "|")
	}
	sort.Strings(out)
	return out
}

// TestAllQueriesIncrementalMatchesBatch is the workload-wide correctness
// sweep: every adapted TPC-H query (plus Q_A/Q_B and every perturbed
// variant) must produce identical results under batch and under eager
// incremental execution of the full shared plan.
func TestAllQueriesIncrementalMatchesBatch(t *testing.T) {
	const sf = 0.004
	cat, err := NewCatalog(sf)
	if err != nil {
		t.Fatal(err)
	}
	ds := Generate(sf, 21)
	queries := append(All(), PaperQA, PaperQB)

	for _, variant := range []bool{false, true} {
		bound, err := Bind(queries, cat, variant)
		if err != nil {
			t.Fatal(err)
		}
		run := func(pace int) [][]string {
			sp, err := mqo.Build(bound)
			if err != nil {
				t.Fatal(err)
			}
			g, err := mqo.Extract(sp)
			if err != nil {
				t.Fatal(err)
			}
			r, err := exec.NewDeltaRunner(g, exec.InsertStream(exec.Dataset(ds)))
			if err != nil {
				t.Fatal(err)
			}
			paces := make([]int, len(g.Subplans))
			for i := range paces {
				paces[i] = pace
			}
			if _, err := r.Run(paces); err != nil {
				t.Fatal(err)
			}
			out := make([][]string, len(bound))
			for q := range bound {
				out[q] = roundedResults(r, q)
			}
			return out
		}
		batch := run(1)
		eager := run(7)
		for q := range bound {
			if !reflect.DeepEqual(batch[q], eager[q]) {
				t.Errorf("variant=%v %s: incremental diverges from batch (%d vs %d rows)",
					variant, bound[q].Name, len(eager[q]), len(batch[q]))
			}
		}
	}
}
