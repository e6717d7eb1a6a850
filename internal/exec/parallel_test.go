package exec

import (
	"math/rand"
	"reflect"
	"testing"
)

// parallelHarness builds a workload with several independent queries so
// waves actually contain multiple subplans.
func parallelHarness(t *testing.T) (*harness, Dataset) {
	t.Helper()
	h := newHarness(t, map[string]string{
		"agg": `SELECT l_partkey, SUM(l_quantity) AS sq FROM lineitem GROUP BY l_partkey`,
		"cnt": `SELECT l_partkey, COUNT(*) AS c FROM lineitem GROUP BY l_partkey`,
		"join": `SELECT p_brand, SUM(l_quantity) AS s FROM part, lineitem
			WHERE p_partkey = l_partkey GROUP BY p_brand`,
		"nested": `SELECT MAX(sq) FROM (SELECT SUM(l_quantity) AS sq
			FROM lineitem GROUP BY l_partkey) t`,
	}, []string{"agg", "cnt", "join", "nested"})
	var line [][2]int64
	for i := 0; i < 120; i++ {
		line = append(line, [2]int64{int64(i % 7), int64(i)})
	}
	var parts [][3]interface{}
	for i := 0; i < 7; i++ {
		parts = append(parts, [3]interface{}{i, string(rune('A' + i)), i * 3})
	}
	return h, Dataset{"lineitem": lineitemRows(line...), "part": partRows(parts...)}
}

func TestRunParallelMatchesSequential(t *testing.T) {
	h1, data := parallelHarness(t)
	paces := make([]int, len(h1.graph.Subplans))
	for i := range paces {
		paces[i] = 5
	}
	rSeq, err := NewDeltaRunner(h1.graph, InsertStream(data))
	if err != nil {
		t.Fatal(err)
	}
	repSeq, err := rSeq.Run(paces)
	if err != nil {
		t.Fatal(err)
	}

	h2, _ := parallelHarness(t)
	rPar, err := NewDeltaRunner(h2.graph, InsertStream(data))
	if err != nil {
		t.Fatal(err)
	}
	repPar, err := rPar.RunParallel(paces, 4)
	if err != nil {
		t.Fatal(err)
	}

	if repSeq.TotalWork != repPar.TotalWork {
		t.Errorf("total work differs: %d vs %d", repSeq.TotalWork, repPar.TotalWork)
	}
	if !reflect.DeepEqual(repSeq.QueryFinal, repPar.QueryFinal) {
		t.Errorf("query finals differ: %v vs %v", repSeq.QueryFinal, repPar.QueryFinal)
	}
	for q := 0; q < 4; q++ {
		if !reflect.DeepEqual(rSeq.SortedResults(q), rPar.SortedResults(q)) {
			t.Errorf("query %d results differ", q)
		}
	}
}

// TestRunParallelMatchesSequentialRandomPaces is the property-test version:
// random pace configurations and worker counts must produce the same report
// and per-query results as the sequential runner.
func TestRunParallelMatchesSequentialRandomPaces(t *testing.T) {
	rng := rand.New(rand.NewSource(23))
	for trial := 0; trial < 6; trial++ {
		h1, data := parallelHarness(t)
		paces := make([]int, len(h1.graph.Subplans))
		for i := range paces {
			paces[i] = 1 + rng.Intn(6)
		}
		// Clamp to the parent <= child pace order the optimizer guarantees.
		for pass := 0; pass < len(paces); pass++ {
			for _, s := range h1.graph.Subplans {
				for _, c := range s.Children {
					if paces[s.ID] > paces[c.ID] {
						paces[s.ID] = paces[c.ID]
					}
				}
			}
		}
		workers := 2 + rng.Intn(6)

		rSeq, err := NewDeltaRunner(h1.graph, InsertStream(data))
		if err != nil {
			t.Fatal(err)
		}
		repSeq, err := rSeq.Run(paces)
		if err != nil {
			t.Fatal(err)
		}
		h2, _ := parallelHarness(t)
		rPar, err := NewDeltaRunner(h2.graph, InsertStream(data))
		if err != nil {
			t.Fatal(err)
		}
		repPar, err := rPar.RunParallel(paces, workers)
		if err != nil {
			t.Fatal(err)
		}

		if repSeq.TotalWork != repPar.TotalWork {
			t.Errorf("trial %d paces %v workers %d: total work %d vs %d",
				trial, paces, workers, repSeq.TotalWork, repPar.TotalWork)
		}
		if !reflect.DeepEqual(repSeq.QueryFinal, repPar.QueryFinal) {
			t.Errorf("trial %d paces %v workers %d: query finals %v vs %v",
				trial, paces, workers, repSeq.QueryFinal, repPar.QueryFinal)
		}
		for q := 0; q < 4; q++ {
			if !reflect.DeepEqual(rSeq.SortedResults(q), rPar.SortedResults(q)) {
				t.Errorf("trial %d paces %v workers %d: query %d results differ",
					trial, paces, workers, q)
			}
		}
	}
}

func TestRunParallelValidation(t *testing.T) {
	h, data := parallelHarness(t)
	r, err := NewDeltaRunner(h.graph, InsertStream(data))
	if err != nil {
		t.Fatal(err)
	}
	if _, err := r.RunParallel([]int{1}, 2); err == nil {
		t.Error("wrong pace count accepted")
	}
	bad := make([]int, len(h.graph.Subplans))
	if _, err := r.RunParallel(bad, 2); err == nil {
		t.Error("pace 0 accepted")
	}
}

func TestRunParallelDefaultWorkers(t *testing.T) {
	h, data := parallelHarness(t)
	r, err := NewDeltaRunner(h.graph, InsertStream(data))
	if err != nil {
		t.Fatal(err)
	}
	paces := make([]int, len(h.graph.Subplans))
	for i := range paces {
		paces[i] = 2
	}
	if _, err := r.RunParallel(paces, 0); err != nil {
		t.Fatalf("default worker count: %v", err)
	}
}
