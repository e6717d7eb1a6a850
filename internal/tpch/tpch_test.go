package tpch

import (
	"reflect"
	"testing"

	"ishare/internal/exec"
	"ishare/internal/mqo"
	"ishare/internal/plan"
	"ishare/internal/value"
)

func TestSizesScale(t *testing.T) {
	small := SizesFor(0.01)
	big := SizesFor(0.1)
	if small.Lineitem >= big.Lineitem {
		t.Errorf("lineitem rows do not scale: %d vs %d", small.Lineitem, big.Lineitem)
	}
	if small.Region != len(Regions) || small.Nation != len(Nations) {
		t.Error("dimension tables must not scale")
	}
	tiny := SizesFor(0)
	if tiny.Supplier < 1 {
		t.Error("scale floor of one row violated")
	}
}

func TestGenerateDeterministic(t *testing.T) {
	a := Generate(0.01, 42)
	b := Generate(0.01, 42)
	for _, table := range []string{"lineitem", "orders", "part"} {
		if len(a[table]) != len(b[table]) {
			t.Fatalf("%s: %d vs %d rows", table, len(a[table]), len(b[table]))
		}
		for i := range a[table] {
			if !a[table][i].Equal(b[table][i]) {
				t.Fatalf("%s row %d differs", table, i)
			}
		}
	}
	c := Generate(0.01, 43)
	same := true
	for i := range a["lineitem"] {
		if !a["lineitem"][i].Equal(c["lineitem"][i]) {
			same = false
			break
		}
	}
	if same {
		t.Error("different seeds produced identical data")
	}
}

func TestGenerateMatchesCatalog(t *testing.T) {
	cat, err := NewCatalog(0.01)
	if err != nil {
		t.Fatal(err)
	}
	ds := Generate(0.01, 1)
	for _, name := range cat.Names() {
		tab, err := cat.Lookup(name)
		if err != nil {
			t.Fatal(err)
		}
		rows := ds[name]
		if len(rows) == 0 {
			t.Errorf("%s: no rows generated", name)
			continue
		}
		if float64(len(rows)) != tab.Stats.RowCount {
			t.Errorf("%s: %d rows vs catalog %v", name, len(rows), tab.Stats.RowCount)
		}
		for i, row := range rows {
			if len(row) != len(tab.Columns) {
				t.Fatalf("%s row %d: width %d vs schema %d", name, i, len(row), len(tab.Columns))
			}
			for j, v := range row {
				if v.K != tab.Columns[j].Type {
					t.Fatalf("%s row %d col %s: kind %v vs schema %v",
						name, i, tab.Columns[j].Name, v.K, tab.Columns[j].Type)
				}
			}
		}
	}
}

func TestValueDomains(t *testing.T) {
	cat, err := NewCatalog(0.01)
	if err != nil {
		t.Fatal(err)
	}
	ds := Generate(0.01, 7)
	li, _ := cat.Lookup("lineitem")
	ship := li.ColumnIndex("l_shipdate")
	qty := li.ColumnIndex("l_quantity")
	for _, row := range ds["lineitem"] {
		if d := row[ship].AsInt(); d < DateMin || d > DateMax {
			t.Fatalf("shipdate %d out of range", d)
		}
		if q := row[qty].AsFloat(); q < 1 || q > MaxQuantity {
			t.Fatalf("quantity %v out of range", q)
		}
	}
}

func TestAllQueriesBindAndMerge(t *testing.T) {
	cat, err := NewCatalog(0.01)
	if err != nil {
		t.Fatal(err)
	}
	queries := append(All(), PaperQA, PaperQB)
	for _, variant := range []bool{false, true} {
		bound, err := Bind(queries, cat, variant)
		if err != nil {
			t.Fatalf("variant=%v: %v", variant, err)
		}
		if len(bound) != 24 {
			t.Fatalf("bound %d queries", len(bound))
		}
		for _, q := range bound {
			if err := plan.Validate(q.Root); err != nil {
				t.Errorf("%s: %v", q.Name, err)
			}
		}
		sp, err := mqo.Build(bound)
		if err != nil {
			t.Fatalf("variant=%v Build: %v", variant, err)
		}
		if _, err := mqo.Extract(sp); err != nil {
			t.Fatalf("variant=%v Extract: %v", variant, err)
		}
	}
}

func TestVariantsDiffer(t *testing.T) {
	for _, q := range All() {
		if q.Build(false) == q.Build(true) {
			t.Errorf("%s: variant identical to base", q.Name)
		}
	}
}

func TestSharedWorkInOverlappingTen(t *testing.T) {
	cat, err := NewCatalog(0.01)
	if err != nil {
		t.Fatal(err)
	}
	qs, err := ByName(OverlappingTen...)
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
	if sp.SharedOpCount() < 5 {
		t.Errorf("overlapping set shares only %d operators", sp.SharedOpCount())
	}
}

func TestByNameUnknown(t *testing.T) {
	if _, err := ByName("Q99"); err == nil {
		t.Error("unknown query accepted")
	}
}

// TestEndToEndExecutionSmall runs a handful of representative queries over
// generated data, batch vs incremental, and checks result agreement.
func TestEndToEndExecutionSmall(t *testing.T) {
	cat, err := NewCatalog(0.002)
	if err != nil {
		t.Fatal(err)
	}
	ds := Generate(0.002, 11)
	qs, err := ByName("Q1", "Q6", "Q14", "Q15", "Q22")
	if err != nil {
		t.Fatal(err)
	}
	run := func(eager bool) ([][]string, *mqo.Graph) {
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
			if eager {
				paces[i] = 5
			}
		}
		if _, err := r.Run(paces); err != nil {
			t.Fatal(err)
		}
		out := make([][]string, len(qs))
		for q := range qs {
			out[q] = roundedResults(r, q)
		}
		return out, g
	}
	batch, _ := run(false)
	inc, _ := run(true)
	for q := range qs {
		if !reflect.DeepEqual(batch[q], inc[q]) {
			t.Errorf("%s: incremental diverges from batch\nbatch: %v\ninc:   %v",
				qs[q].Name, clip(batch[q]), clip(inc[q]))
		}
		if len(batch[q]) == 0 {
			t.Logf("%s returned no rows at this scale (acceptable but unselective tests are weaker)", qs[q].Name)
		}
	}
}

func clip(s []string) []string {
	if len(s) > 5 {
		return s[:5]
	}
	return s
}

// TestQ1Aggregates sanity-checks Q1's sums against a direct computation.
func TestQ1Aggregates(t *testing.T) {
	cat, err := NewCatalog(0.002)
	if err != nil {
		t.Fatal(err)
	}
	ds := Generate(0.002, 3)
	qs, _ := ByName("Q1")
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
	if _, err := r.Run([]int{1}); err != nil {
		t.Fatal(err)
	}
	rows := r.Results(0)
	li, _ := cat.Lookup("lineitem")
	ship := li.ColumnIndex("l_shipdate")
	qty := li.ColumnIndex("l_quantity")
	flag := li.ColumnIndex("l_returnflag")
	status := li.ColumnIndex("l_linestatus")
	want := map[string]float64{}
	for _, row := range ds["lineitem"] {
		if row[ship].AsInt() <= 2450 {
			key := row[flag].S + "|" + row[status].S
			want[key] += row[qty].AsFloat()
		}
	}
	if len(rows) != len(want) {
		t.Fatalf("groups = %d, want %d", len(rows), len(want))
	}
	for _, row := range rows {
		key := row[0].S + "|" + row[1].S
		if got := row[2].AsFloat(); got != want[key] {
			t.Errorf("group %s sum_qty = %v, want %v", key, got, want[key])
		}
	}
	_ = value.Null
}
