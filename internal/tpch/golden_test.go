package tpch

import (
	"fmt"
	"math"
	"testing"

	"ishare/internal/exec"
	"ishare/internal/mqo"
)

// runSingle executes one query in batch over a dataset and returns its rows.
func runSingle(t *testing.T, sf float64, seed int64, name string) ([][]string, Dataset) {
	t.Helper()
	cat, err := NewCatalog(sf)
	if err != nil {
		t.Fatal(err)
	}
	ds := Generate(sf, seed)
	qs, err := ByName(name)
	if err != nil {
		t.Fatal(err)
	}
	bound, err := Bind(qs, cat, false)
	if err != nil {
		t.Fatal(err)
	}
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
		paces[i] = 1
	}
	if _, err := r.Run(paces); err != nil {
		t.Fatal(err)
	}
	rows := r.Results(0)
	out := make([][]string, len(rows))
	for i, row := range rows {
		cells := make([]string, len(row))
		for j, v := range row {
			cells[j] = v.String()
		}
		out[i] = cells
	}
	return out, ds
}

// TestQ6Golden recomputes Q6's filtered revenue sum directly from the
// generated rows and compares against the engine.
func TestQ6Golden(t *testing.T) {
	rows, ds := runSingle(t, 0.005, 13, "Q6")
	cat, _ := NewCatalog(0.005)
	li, _ := cat.Lookup("lineitem")
	ship := li.ColumnIndex("l_shipdate")
	disc := li.ColumnIndex("l_discount")
	qty := li.ColumnIndex("l_quantity")
	price := li.ColumnIndex("l_extendedprice")
	var want float64
	n := 0
	for _, row := range ds["lineitem"] {
		d := row[ship].AsInt()
		dc := row[disc].AsFloat()
		if d >= 730 && d < 1095 && dc > 0.04 && dc < 0.07 && row[qty].AsFloat() < 24 {
			want += row[price].AsFloat() * dc
			n++
		}
	}
	if n == 0 {
		t.Skip("no qualifying rows at this scale")
	}
	if len(rows) != 1 {
		t.Fatalf("rows = %v", rows)
	}
	got := 0.0
	if _, err := fmtSscan(rows[0][0], &got); err != nil {
		t.Fatalf("parse %q: %v", rows[0][0], err)
	}
	if math.Abs(got-want) > 1e-6*math.Abs(want)+1e-9 {
		t.Errorf("Q6 revenue = %v, want %v", got, want)
	}
}

// TestQ22Golden recomputes Q22's per-segment counts and balances.
func TestQ22Golden(t *testing.T) {
	rows, ds := runSingle(t, 0.005, 13, "Q22")
	cat, _ := NewCatalog(0.005)
	cu, _ := cat.Lookup("customer")
	bal := cu.ColumnIndex("c_acctbal")
	seg := cu.ColumnIndex("c_mktsegment")
	type agg struct {
		n   int64
		sum float64
	}
	want := map[string]*agg{}
	for _, row := range ds["customer"] {
		if row[bal].AsFloat() > 7000 {
			a, ok := want[row[seg].S]
			if !ok {
				a = &agg{}
				want[row[seg].S] = a
			}
			a.n++
			a.sum += row[bal].AsFloat()
		}
	}
	if len(rows) != len(want) {
		t.Fatalf("groups = %d, want %d", len(rows), len(want))
	}
	for _, r := range rows {
		a, ok := want[r[0]]
		if !ok {
			t.Errorf("unexpected segment %q", r[0])
			continue
		}
		var n float64
		if _, err := fmtSscan(r[1], &n); err != nil || int64(n) != a.n {
			t.Errorf("segment %s count = %s, want %d", r[0], r[1], a.n)
		}
	}
}

// TestQ15GoldenTopSupplier verifies Q15 picks the true maximum-revenue
// supplier.
func TestQ15GoldenTopSupplier(t *testing.T) {
	rows, ds := runSingle(t, 0.005, 13, "Q15")
	cat, _ := NewCatalog(0.005)
	li, _ := cat.Lookup("lineitem")
	ship := li.ColumnIndex("l_shipdate")
	supp := li.ColumnIndex("l_suppkey")
	disc := li.ColumnIndex("l_discount")
	price := li.ColumnIndex("l_extendedprice")
	rev := map[int64]float64{}
	for _, row := range ds["lineitem"] {
		d := row[ship].AsInt()
		if d >= 900 && d < 1500 {
			rev[row[supp].AsInt()] += row[price].AsFloat() * (1 - row[disc].AsFloat())
		}
	}
	best := math.Inf(-1)
	for _, v := range rev {
		if v > best {
			best = v
		}
	}
	if len(rows) == 0 {
		t.Skip("no revenue rows at this scale")
	}
	// Every returned supplier must carry the maximum revenue.
	for _, r := range rows {
		var got float64
		if _, err := fmtSscan(r[2], &got); err != nil {
			t.Fatalf("parse %q: %v", r[2], err)
		}
		if math.Abs(got-best) > 1e-6*math.Abs(best) {
			t.Errorf("top revenue = %v, want %v", got, best)
		}
	}
}

// fmtSscan is a tiny wrapper so the tests avoid importing fmt at each site.
func fmtSscan(s string, out *float64) (int, error) {
	return fmt.Sscan(s, out)
}
