package cost

import (
	"bytes"
	"encoding/json"
	"flag"
	"fmt"
	"math/rand"
	"os"
	"path/filepath"
	"reflect"
	"strconv"
	"strings"
	"sync"
	"testing"

	"ishare/internal/mqo"
	"ishare/internal/tpch"
)

var updateGolden = flag.Bool("update", false, "rewrite golden files under testdata/")

// goldenMaxPace is the largest pace the golden pace vectors draw.
const goldenMaxPace = 40

// hexf renders a float exactly, so the golden pins every bit.
func hexf(v float64) string { return strconv.FormatFloat(v, 'x', -1, 64) }

// hexfs renders a vector on one line.
func hexfs(vs []float64) string {
	out := make([]string, len(vs))
	for i, v := range vs {
		out[i] = hexf(v)
	}
	return strings.Join(out, " ")
}

// renderProfile writes one profile on one line: gross, net, delete share,
// the per-query values in ascending query order and the column distincts.
func renderProfile(p Profile) string {
	var sb strings.Builder
	fmt.Fprintf(&sb, "G=%s N=%s D=%s q=[", hexf(p.Gross), hexf(p.Net), hexf(p.DeleteShare))
	for i, q := range p.Queries.Members() {
		if i > 0 {
			sb.WriteByte(' ')
		}
		fmt.Fprintf(&sb, "%d:%s", q, hexf(p.PerQuery[q]))
	}
	sb.WriteString("] d=[")
	for i, c := range p.Cols {
		if i > 0 {
			sb.WriteByte(' ')
		}
		sb.WriteString(hexf(c.Distinct))
	}
	sb.WriteByte(']')
	return sb.String()
}

// goldenEval is one pace vector's evaluation.
type goldenEval struct {
	Paces      string
	Total      string
	SubTotal   string
	SubFinal   string
	QueryFinal string
	Outputs    []string
	// OpOutputs lists the largest shared subplan's per-operator profiles
	// as "op <id>: <profile>", in the subplan's operator order.
	OpOutputs []string `json:",omitempty"`
}

type goldenGraph struct {
	Name       string
	Calibrated bool `json:",omitempty"`
	Evals      []goldenEval
}

func goldenTPCHGraph(t *testing.T, names ...string) *mqo.Graph {
	t.Helper()
	cat, err := tpch.NewCatalog(0.05)
	if err != nil {
		t.Fatal(err)
	}
	qs := tpch.All()
	if len(names) > 0 {
		if qs, err = tpch.ByName(names...); err != nil {
			t.Fatal(err)
		}
	}
	bound, err := tpch.Bind(qs, cat, false)
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
	return g
}

// goldenPaces returns all-ones, all-goldenMaxPace and n-2 seeded vectors.
func goldenPaces(n, subplans int, seed int64) [][]int {
	rng := rand.New(rand.NewSource(seed))
	all := func(v int) []int {
		p := make([]int, subplans)
		for i := range p {
			p[i] = v
		}
		return p
	}
	out := [][]int{all(1), all(goldenMaxPace)}
	for len(out) < n {
		p := make([]int, subplans)
		for i := range p {
			p[i] = 1 + rng.Intn(goldenMaxPace)
		}
		out = append(out, p)
	}
	return out
}

// largestShared returns the shared subplan with the most operators.
func largestShared(g *mqo.Graph) *mqo.Subplan {
	var best *mqo.Subplan
	for _, s := range g.Subplans {
		if s.Queries.Count() >= 2 && (best == nil || len(s.Ops) > len(best.Ops)) {
			best = s
		}
	}
	return best
}

func goldenEvals(t *testing.T, m *Model, vectors [][]int) []goldenEval {
	t.Helper()
	var out []goldenEval
	for _, paces := range vectors {
		ge, err := renderEval(m, paces)
		if err != nil {
			t.Fatal(err)
		}
		out = append(out, ge)
	}
	return out
}

// renderEval evaluates one pace vector and renders it for the golden.
func renderEval(m *Model, paces []int) (goldenEval, error) {
	ev, err := m.Evaluate(paces)
	if err != nil {
		return goldenEval{}, err
	}
	outs, err := m.OutputProfiles(paces)
	if err != nil {
		return goldenEval{}, err
	}
	ge := goldenEval{
		Paces:      fmt.Sprint(paces),
		Total:      hexf(ev.Total),
		SubTotal:   hexfs(ev.SubTotal),
		SubFinal:   hexfs(ev.SubFinal),
		QueryFinal: hexfs(ev.QueryFinal),
	}
	for _, p := range outs {
		ge.Outputs = append(ge.Outputs, renderProfile(p))
	}
	if shared := largestShared(m.Graph); shared != nil {
		opOuts, err := m.OpOutputs(shared, paces)
		if err != nil {
			return goldenEval{}, err
		}
		for _, o := range shared.Ops {
			ge.OpOutputs = append(ge.OpOutputs, fmt.Sprintf("op %d: %s", o.ID, renderProfile(opOuts[o])))
		}
	}
	return ge, nil
}

// goldenCalibration gives every subplan deterministic, distinct factors.
func goldenCalibration(g *mqo.Graph) Calibration {
	c := make(Calibration, len(g.Subplans))
	for i, s := range g.Subplans {
		c[s.Root.BaseSignature()] = Factor{
			Work:  0.5 + 0.25*float64(i%5),
			Final: 1 + 0.125*float64(i%3),
			Out:   0.75 + 0.1*float64(i%4),
		}
	}
	return c
}

// TestEvalGolden pins the cost model bit for bit: Evaluate's totals,
// every subplan output profile, the largest shared subplan's per-operator
// outputs and one calibrated model, over the 22-query TPC-H graph and two
// smaller subsets under seeded pace vectors. Run with -update to rewrite.
func TestEvalGolden(t *testing.T) {
	graphs := []struct {
		name  string
		names []string
	}{
		{"tpch22", nil},
		{"six", []string{"Q1", "Q3", "Q5", "Q10", "Q15", "Q18"}},
		{"four", []string{"Q2", "Q7", "Q9", "Q17"}},
	}
	var got []goldenGraph
	for i, gr := range graphs {
		g := goldenTPCHGraph(t, gr.names...)
		vectors := goldenPaces(20, len(g.Subplans), int64(i+1))
		got = append(got, goldenGraph{Name: gr.name, Evals: goldenEvals(t, NewModel(g), vectors)})
		if gr.name == "six" {
			m := NewModel(g)
			m.SetCalibration(goldenCalibration(g))
			got = append(got, goldenGraph{Name: gr.name, Calibrated: true, Evals: goldenEvals(t, m, vectors[:6])})
		}
	}
	buf, err := json.MarshalIndent(got, "", " ")
	if err != nil {
		t.Fatal(err)
	}
	buf = append(buf, '\n')
	path := filepath.Join("testdata", "eval_golden.json")
	if *updateGolden {
		if err := os.MkdirAll("testdata", 0o755); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(path, buf, 0o644); err != nil {
			t.Fatal(err)
		}
		return
	}
	want, err := os.ReadFile(path)
	if err != nil {
		t.Fatalf("%v (run with -update to create)", err)
	}
	if !bytes.Equal(buf, want) {
		gotLines, wantLines := strings.Split(string(buf), "\n"), strings.Split(string(want), "\n")
		for i := 0; i < len(gotLines) && i < len(wantLines); i++ {
			if gotLines[i] != wantLines[i] {
				t.Fatalf("cost model drifted from %s at line %d:\n got %s\nwant %s", path, i+1, gotLines[i], wantLines[i])
			}
		}
		t.Fatalf("cost model drifted from %s: %d lines, want %d", path, len(gotLines), len(wantLines))
	}
}

// TestConcurrentEvaluateMatchesSequential shares one model between
// goroutines that evaluate the same pace vectors in different orders, so
// compiled programs, pooled run states and memo entries are reached from
// several goroutines at once; every result must equal a sequential model's.
func TestConcurrentEvaluateMatchesSequential(t *testing.T) {
	g := goldenTPCHGraph(t, "Q1", "Q3", "Q5", "Q10", "Q15", "Q18")
	vectors := goldenPaces(12, len(g.Subplans), 7)
	want := goldenEvals(t, NewModel(g), vectors)
	shared := NewModel(g)
	const workers = 4
	got := make([][]goldenEval, workers)
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			order := rand.New(rand.NewSource(int64(w))).Perm(len(vectors))
			evals := make([]goldenEval, len(vectors))
			for _, i := range order {
				ge, err := renderEval(shared, vectors[i])
				if err != nil {
					t.Error(err)
					return
				}
				evals[i] = ge
			}
			got[w] = evals
		}(w)
	}
	wg.Wait()
	for w := range got {
		if !reflect.DeepEqual(got[w], want) {
			t.Errorf("worker %d: concurrent evaluation differs from sequential", w)
		}
	}
}
