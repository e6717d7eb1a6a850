package ishare

import (
	"bytes"
	"encoding/json"
	"flag"
	"math/rand"
	"os"
	"path/filepath"
	"testing"
)

var updateGolden = flag.Bool("update", false, "rewrite golden files under testdata/")

// sessionCall is one Session call of the golden sequence and the session's
// observable state right after it.
type sessionCall struct {
	Call       string      `json:"call"`
	Work       int64       `json:"work,omitempty"`
	Admit      *AdmitStats `json:"admit,omitempty"`
	Windows    int         `json:"windows"`
	TotalWork  int64       `json:"total_work"`
	Paces      []int       `json:"paces"`
	SearchSims int64       `json:"search_sims"`
}

// sessionRecord is everything the golden sequence pins.
type sessionRecord struct {
	Calls   []sessionCall       `json:"calls"`
	Profile []DriftSample       `json:"profile"`
	Drift   []float64           `json:"drift"`
	Results map[string][]string `json:"results"`
}

// goldenWindow draws one seeded window of orders and customers rows.
func goldenWindow(rng *rand.Rand, nextID *int) map[string][]Row {
	customers := []string{"acme", "globex", "initech", "umbrella", "hooli", "stark"}
	regions := []string{"east", "west", "north"}
	orders := make([]Row, 40)
	for i := range orders {
		*nextID++
		orders[i] = Row{*nextID, customers[rng.Intn(len(customers))], float64(rng.Intn(100)), 1 + rng.Intn(5)}
	}
	custs := make([]Row, 3)
	for i := range custs {
		custs[i] = Row{customers[rng.Intn(len(customers))], regions[rng.Intn(len(regions))]}
	}
	return map[string][]Row{"orders": orders, "customers": custs}
}

// TestSessionGolden pins the Session's whole observable behaviour over a
// seeded Step, Step, Admit, Step, Retire, Step, Step sequence: per-call work,
// window count, total work (catch-up replays included), paces, admission
// statistics, search simulations, the execution profile (wall time zeroed),
// drift, and every active query's sorted results. The physical knobs are
// pinned at their defaults because the batch counts and the shared
// arrangement statistics depend on them. Regenerate with:
//
//	go test . -run TestSessionGolden -update
func TestSessionGolden(t *testing.T) {
	t.Setenv("ISHARE_BATCH", "")
	t.Setenv("ISHARE_SHARE_ARRANGEMENTS", "1")
	t.Setenv("ISHARE_REUSE", "1")

	e := ordersEngine(t)
	e.MustAddQuery("by_customer", "SELECT o_customer, SUM(o_amount) FROM orders GROUP BY o_customer", 0.5)
	e.MustAddQuery("by_priority", "SELECT o_priority, COUNT(*) FROM orders WHERE o_amount > 20 GROUP BY o_priority", 0.5)
	s, err := e.StartSession(Options{MaxPace: 10})
	if err != nil {
		t.Fatal(err)
	}
	rng := rand.New(rand.NewSource(14))
	nextID := 0
	var rec sessionRecord
	note := func(c sessionCall) {
		c.Windows = s.Windows()
		c.TotalWork = s.TotalWork()
		c.Paces = s.Paces()
		c.SearchSims = s.SearchSims()
		rec.Calls = append(rec.Calls, c)
	}
	step := func() {
		work, err := s.Step(goldenWindow(rng, &nextID))
		if err != nil {
			t.Fatal(err)
		}
		note(sessionCall{Call: "step", Work: work})
	}
	step()
	step()
	st, err := s.Admit("by_region",
		`SELECT c_region, SUM(o_amount) FROM orders, customers
		 WHERE o_customer = c_name GROUP BY c_region`, 0.3)
	if err != nil {
		t.Fatal(err)
	}
	note(sessionCall{Call: "admit by_region", Admit: st})
	step()
	if st, err = s.Retire("by_priority"); err != nil {
		t.Fatal(err)
	}
	note(sessionCall{Call: "retire by_priority", Admit: st})
	step()
	step()

	for _, sm := range s.Profile() {
		sm.WallNS = 0
		rec.Profile = append(rec.Profile, sm)
	}
	rec.Drift = s.Drift()
	rec.Results = map[string][]string{}
	for _, name := range s.QueryNames() {
		rows, err := s.Results(name)
		if err != nil {
			t.Fatal(err)
		}
		rec.Results[name] = renderRows(rows)
	}
	got, err := json.MarshalIndent(rec, "", "  ")
	if err != nil {
		t.Fatal(err)
	}
	got = append(got, '\n')

	golden := filepath.Join("testdata", "session_golden.json")
	if *updateGolden {
		if err := os.MkdirAll(filepath.Dir(golden), 0o755); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(golden, got, 0o644); err != nil {
			t.Fatal(err)
		}
		return
	}
	want, err := os.ReadFile(golden)
	if err != nil {
		t.Fatalf("missing golden file (regenerate with -update): %v", err)
	}
	if !bytes.Equal(got, want) {
		t.Errorf("session record diverged from %s (regenerate with -update if the change is intended):\n%s", golden, got)
	}
}
