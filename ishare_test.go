package ishare

import (
	"bytes"
	"math"
	"reflect"
	"sort"
	"strconv"
	"strings"
	"testing"
)

// ordersEngine builds a two-table engine used across the API tests.
func ordersEngine(t *testing.T) *Engine {
	t.Helper()
	e := NewEngine()
	if err := e.CreateTable(TableSchema{
		Name: "orders",
		Columns: []Column{
			{Name: "o_id", Type: Int, Distinct: 1000},
			{Name: "o_customer", Type: String, Distinct: 50},
			{Name: "o_amount", Type: Float},
			{Name: "o_priority", Type: Int, Distinct: 5, Min: 1, Max: 5},
		},
		ExpectedRows: 1000,
	}); err != nil {
		t.Fatal(err)
	}
	if err := e.CreateTable(TableSchema{
		Name: "customers",
		Columns: []Column{
			{Name: "c_name", Type: String, Distinct: 50},
			{Name: "c_region", Type: String, Distinct: 5},
		},
		ExpectedRows: 50,
	}); err != nil {
		t.Fatal(err)
	}
	return e
}

func ordersData() map[string][]Row {
	return map[string][]Row{
		"orders": {
			{1, "acme", 10.0, 1},
			{2, "acme", 20.0, 2},
			{3, "globex", 5.0, 1},
			{4, "initech", 40.0, 5},
		},
		"customers": {
			{"acme", "west"},
			{"globex", "east"},
			{"initech", "west"},
		},
	}
}

func TestEngineEndToEnd(t *testing.T) {
	e := ordersEngine(t)
	if err := e.AddQuery("by_customer",
		"SELECT o_customer, SUM(o_amount) AS total FROM orders GROUP BY o_customer", 1.0); err != nil {
		t.Fatal(err)
	}
	if err := e.AddQuery("by_region",
		`SELECT c_region, SUM(o_amount) AS total FROM orders, customers
		 WHERE o_customer = c_name GROUP BY c_region`, 0.2); err != nil {
		t.Fatal(err)
	}
	p, err := e.Optimize(Options{})
	if err != nil {
		t.Fatal(err)
	}
	rep, err := e.Run(p, ordersData())
	if err != nil {
		t.Fatal(err)
	}
	if rep.TotalWork <= 0 {
		t.Error("no work recorded")
	}
	got := renderRows(rep.Results("by_customer"))
	want := []string{"acme|30", "globex|5", "initech|40"}
	if !reflect.DeepEqual(got, want) {
		t.Errorf("by_customer = %v, want %v", got, want)
	}
	got = renderRows(rep.Results("by_region"))
	want = []string{"east|5", "west|70"}
	if !reflect.DeepEqual(got, want) {
		t.Errorf("by_region = %v, want %v", got, want)
	}
	for _, name := range e.QueryNames() {
		if rep.FinalWork[name] <= 0 {
			t.Errorf("final work for %s = %d", name, rep.FinalWork[name])
		}
	}
}

func TestEngineSharesAcrossQueries(t *testing.T) {
	e := ordersEngine(t)
	e.MustAddQuery("all", "SELECT o_customer, SUM(o_amount) FROM orders GROUP BY o_customer", 1.0)
	e.MustAddQuery("urgent", "SELECT o_customer, SUM(o_amount) FROM orders WHERE o_priority = 1 GROUP BY o_customer", 0.5)
	// Decomposition may legitimately unshare under very tight constraints;
	// pin the no-unshare variant so the sharing diagnostic is stable.
	p, err := e.Optimize(Options{Approach: IShareNoUnshare})
	if err != nil {
		t.Fatal(err)
	}
	if p.SharedOperators() == 0 {
		t.Error("structurally identical queries share nothing")
	}
	var buf bytes.Buffer
	p.Explain(&buf)
	text := buf.String()
	for _, want := range []string{"iShare", "subplan", "pace", "urgent"} {
		if !strings.Contains(text, want) {
			t.Errorf("Explain missing %q:\n%s", want, text)
		}
	}
}

func TestEngineApproaches(t *testing.T) {
	for _, a := range []Approach{IShare, IShareNoUnshare, NoShareUniform, NoShareNonuniform, ShareUniform, IShareBruteForce} {
		e := ordersEngine(t)
		e.MustAddQuery("q", "SELECT o_customer, SUM(o_amount) FROM orders GROUP BY o_customer", 0.5)
		p, err := e.Optimize(Options{Approach: a, MaxPace: 10})
		if err != nil {
			t.Fatalf("%s: %v", a, err)
		}
		rep, err := e.Run(p, ordersData())
		if err != nil {
			t.Fatalf("%s: %v", a, err)
		}
		if len(rep.Results("q")) != 3 {
			t.Errorf("%s: results = %v", a, rep.Results("q"))
		}
	}
}

func TestEngineErrors(t *testing.T) {
	e := NewEngine()
	if _, err := e.Optimize(Options{}); err == nil {
		t.Error("optimize with no queries accepted")
	}
	if err := e.AddQuery("q", "SELECT x FROM missing", 0.5); err == nil {
		t.Error("unknown table accepted")
	}
	if err := e.CreateTable(TableSchema{Name: "t", Columns: []Column{{Name: "a", Type: "BAD"}}}); err == nil {
		t.Error("bad type accepted")
	}
	e2 := ordersEngine(t)
	if err := e2.AddQuery("q", "SELECT o_customer FROM orders", 0); err == nil {
		t.Error("zero constraint accepted")
	}
	if err := e2.AddQuery("q", "SELECT o_customer FROM orders", math.NaN()); err == nil {
		t.Error("NaN constraint accepted")
	}
	e2.MustAddQuery("q", "SELECT o_customer FROM orders", 1)
	s, err := e2.StartSession(Options{})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := s.Admit("nan", "SELECT o_customer FROM orders", math.NaN()); err == nil {
		t.Error("NaN admission constraint accepted")
	}
	p, err := e2.Optimize(Options{})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := e2.Run(p, map[string][]Row{"orders": {{1}}}); err == nil {
		t.Error("short row accepted")
	}
	if _, err := e2.Optimize(Options{Approach: Approach(42)}); err == nil {
		t.Error("bogus approach accepted")
	}
}

func TestValueConversions(t *testing.T) {
	e := NewEngine()
	e.MustCreateTable(TableSchema{
		Name: "t",
		Columns: []Column{
			{Name: "i", Type: Int},
			{Name: "f", Type: Float},
			{Name: "s", Type: String},
			{Name: "b", Type: Bool},
			{Name: "d", Type: Date},
		},
		ExpectedRows: 10,
	})
	e.MustAddQuery("q", "SELECT i, f, s, b, d FROM t", 1.0)
	p, err := e.Optimize(Options{})
	if err != nil {
		t.Fatal(err)
	}
	rep, err := e.Run(p, map[string][]Row{
		"t": {{int64(7), 1.5, "x", true, 100}},
	})
	if err != nil {
		t.Fatal(err)
	}
	rows := rep.Results("q")
	if len(rows) != 1 {
		t.Fatalf("rows = %v", rows)
	}
	r := rows[0]
	if r[0] != int64(7) || r[1] != 1.5 || r[2] != "x" || r[3] != true || r[4] != int64(100) {
		t.Errorf("row = %#v", r)
	}
}

// renderRows flattens result rows into sorted "a|b" strings with trailing
// float zeros trimmed, for stable comparisons.
func renderRows(rows []Row) []string {
	out := make([]string, len(rows))
	for i, r := range rows {
		parts := make([]string, len(r))
		for j, v := range r {
			switch x := v.(type) {
			case float64:
				parts[j] = strconv.FormatFloat(x, 'g', -1, 64)
			case int64:
				parts[j] = strconv.FormatInt(x, 10)
			case string:
				parts[j] = x
			case bool:
				parts[j] = strconv.FormatBool(x)
			default:
				parts[j] = "?"
			}
		}
		out[i] = strings.Join(parts, "|")
	}
	sort.Strings(out)
	return out
}

func TestRunParallelMatchesRun(t *testing.T) {
	e := ordersEngine(t)
	e.MustAddQuery("q1", "SELECT o_customer, SUM(o_amount) FROM orders GROUP BY o_customer", 0.5)
	e.MustAddQuery("q2", "SELECT o_priority, COUNT(*) FROM orders GROUP BY o_priority", 0.5)
	p, err := e.Optimize(Options{MaxPace: 8})
	if err != nil {
		t.Fatal(err)
	}
	seq, err := e.Run(p, ordersData())
	if err != nil {
		t.Fatal(err)
	}
	par, err := e.RunParallel(p, ordersData(), 4)
	if err != nil {
		t.Fatal(err)
	}
	if seq.TotalWork != par.TotalWork {
		t.Errorf("work differs: %d vs %d", seq.TotalWork, par.TotalWork)
	}
	for _, q := range e.QueryNames() {
		if !reflect.DeepEqual(renderRows(seq.Results(q)), renderRows(par.Results(q))) {
			t.Errorf("%s results differ", q)
		}
	}
}

func TestRunAndCalibrate(t *testing.T) {
	e := ordersEngine(t)
	e.MustAddQuery("q", "SELECT o_customer, SUM(o_amount) FROM orders GROUP BY o_customer", 0.3)
	p, err := e.Optimize(Options{MaxPace: 10})
	if err != nil {
		t.Fatal(err)
	}
	rep, calib, err := e.RunAndCalibrate(p, ordersData())
	if err != nil {
		t.Fatal(err)
	}
	if rep.TotalWork <= 0 || len(calib) == 0 {
		t.Fatalf("report %v, calib %d entries", rep.TotalWork, len(calib))
	}
	// Second recurrence plans with the learned factors.
	p2, err := e.Optimize(Options{MaxPace: 10, Calibration: calib})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := e.Run(p2, ordersData()); err != nil {
		t.Fatal(err)
	}
}

// TestRunAndCalibrateReportMatchesRun: RunAndCalibrate executes the plan
// like Run, so its report carries the same work, per-subplan breakdown and
// result rows.
func TestRunAndCalibrateReportMatchesRun(t *testing.T) {
	e := ordersEngine(t)
	e.MustAddQuery("q1", "SELECT o_customer, SUM(o_amount) FROM orders GROUP BY o_customer", 0.3)
	e.MustAddQuery("q2", "SELECT o_priority, COUNT(*) FROM orders WHERE o_amount > 5 GROUP BY o_priority", 0.5)
	p, err := e.Optimize(Options{MaxPace: 10})
	if err != nil {
		t.Fatal(err)
	}
	run, err := e.Run(p, ordersData())
	if err != nil {
		t.Fatal(err)
	}
	cal, _, err := e.RunAndCalibrate(p, ordersData())
	if err != nil {
		t.Fatal(err)
	}
	if cal.TotalWork != run.TotalWork {
		t.Errorf("TotalWork = %d, Run's %d", cal.TotalWork, run.TotalWork)
	}
	if !reflect.DeepEqual(cal.FinalWork, run.FinalWork) {
		t.Errorf("FinalWork = %v, Run's %v", cal.FinalWork, run.FinalWork)
	}
	if len(run.Subplans) == 0 || !reflect.DeepEqual(cal.Subplans, run.Subplans) {
		t.Errorf("Subplans = %+v, Run's %+v", cal.Subplans, run.Subplans)
	}
	for _, q := range e.QueryNames() {
		got, want := renderRows(cal.Results(q)), renderRows(run.Results(q))
		if len(want) == 0 || !reflect.DeepEqual(got, want) {
			t.Errorf("%s results = %v, Run's %v", q, got, want)
		}
	}
}

func TestAbsoluteConstraintOverride(t *testing.T) {
	e := ordersEngine(t)
	e.MustAddQuery("q", "SELECT o_customer, SUM(o_amount) FROM orders GROUP BY o_customer", 1.0)
	if _, err := e.Optimize(Options{AbsoluteConstraints: map[string]float64{"nope": 1}}); err == nil {
		t.Error("unknown query in absolute constraints accepted")
	}
	p, err := e.Optimize(Options{AbsoluteConstraints: map[string]float64{"q": 1e12}})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := e.Run(p, ordersData()); err != nil {
		t.Fatal(err)
	}
}

func TestWriteDOT(t *testing.T) {
	e := ordersEngine(t)
	e.MustAddQuery("q", "SELECT o_customer, SUM(o_amount) FROM orders GROUP BY o_customer", 1.0)
	p, err := e.Optimize(Options{})
	if err != nil {
		t.Fatal(err)
	}
	var buf bytes.Buffer
	if err := p.WriteDOT(&buf); err != nil {
		t.Fatal(err)
	}
	text := buf.String()
	for _, want := range []string{"digraph", "cluster_0", "Scan", "pace"} {
		if !strings.Contains(text, want) {
			t.Errorf("DOT missing %q:\n%s", want, text)
		}
	}
}

func TestPlanSaveLoad(t *testing.T) {
	e := ordersEngine(t)
	e.MustAddQuery("q1", "SELECT o_customer, SUM(o_amount) FROM orders GROUP BY o_customer", 0.5)
	e.MustAddQuery("q2", "SELECT o_customer, SUM(o_amount) FROM orders WHERE o_priority = 1 GROUP BY o_customer", 0.2)
	p, err := e.Optimize(Options{MaxPace: 10})
	if err != nil {
		t.Fatal(err)
	}
	data, err := p.Save()
	if err != nil {
		t.Fatal(err)
	}
	loaded, err := e.LoadPlan(data)
	if err != nil {
		t.Fatal(err)
	}
	r1, err := e.Run(p, ordersData())
	if err != nil {
		t.Fatal(err)
	}
	r2, err := e.Run(loaded, ordersData())
	if err != nil {
		t.Fatal(err)
	}
	if r1.TotalWork != r2.TotalWork {
		t.Errorf("loaded plan work %d vs original %d", r2.TotalWork, r1.TotalWork)
	}
	for _, q := range e.QueryNames() {
		if !reflect.DeepEqual(renderRows(r1.Results(q)), renderRows(r2.Results(q))) {
			t.Errorf("%s results differ after reload", q)
		}
	}
	if _, err := e.LoadPlan([]byte("nonsense")); err == nil {
		t.Error("corrupt plan accepted")
	}
}

func TestOrderByLimit(t *testing.T) {
	e := ordersEngine(t)
	e.MustAddQuery("top",
		`SELECT o_customer, SUM(o_amount) AS total FROM orders
		 GROUP BY o_customer ORDER BY total DESC LIMIT 2`, 1.0)
	e.MustAddQuery("positional",
		`SELECT o_customer, SUM(o_amount) AS total FROM orders
		 GROUP BY o_customer ORDER BY 2 ASC`, 1.0)
	p, err := e.Optimize(Options{})
	if err != nil {
		t.Fatal(err)
	}
	rep, err := e.Run(p, ordersData())
	if err != nil {
		t.Fatal(err)
	}
	top := rep.Results("top")
	if len(top) != 2 {
		t.Fatalf("LIMIT ignored: %v", top)
	}
	if top[0][0] != "initech" || top[1][0] != "acme" {
		t.Errorf("DESC order wrong: %v", top)
	}
	asc := rep.Results("positional")
	if len(asc) != 3 || asc[0][0] != "globex" {
		t.Errorf("positional ASC wrong: %v", asc)
	}
}

func TestOrderByErrors(t *testing.T) {
	e := ordersEngine(t)
	if err := e.AddQuery("bad", "SELECT o_customer FROM orders ORDER BY nosuch", 1.0); err == nil {
		t.Error("unknown ORDER BY column accepted")
	}
	if err := e.AddQuery("bad2", "SELECT o_customer FROM orders ORDER BY 9", 1.0); err == nil {
		t.Error("out-of-range position accepted")
	}
	if err := e.AddQuery("bad3", "SELECT o_customer FROM orders LIMIT 1.5", 1.0); err == nil {
		t.Error("fractional LIMIT accepted")
	}
}

func TestReportBreakdown(t *testing.T) {
	e := ordersEngine(t)
	e.MustAddQuery("q1", "SELECT o_customer, SUM(o_amount) FROM orders GROUP BY o_customer", 1.0)
	e.MustAddQuery("q2", "SELECT o_customer, SUM(o_amount) FROM orders WHERE o_priority = 1 GROUP BY o_customer", 0.5)
	p, err := e.Optimize(Options{Approach: IShareNoUnshare, MaxPace: 8})
	if err != nil {
		t.Fatal(err)
	}
	rep, err := e.Run(p, ordersData())
	if err != nil {
		t.Fatal(err)
	}
	if len(rep.Subplans) == 0 {
		t.Fatal("no subplan stats")
	}
	var sum int64
	sharedSeen := false
	for _, s := range rep.Subplans {
		sum += s.TotalWork
		if len(s.Queries) == 2 {
			sharedSeen = true
		}
		if s.Pace < 1 {
			t.Errorf("subplan %d pace %d", s.Subplan, s.Pace)
		}
	}
	if sum != rep.TotalWork {
		t.Errorf("subplan breakdown sums to %d, report total %d", sum, rep.TotalWork)
	}
	if !sharedSeen {
		t.Error("no shared subplan in breakdown")
	}
	var buf bytes.Buffer
	rep.Breakdown(&buf)
	if !strings.Contains(buf.String(), "q1,q2") {
		t.Errorf("breakdown missing shared query list:\n%s", buf.String())
	}
}
