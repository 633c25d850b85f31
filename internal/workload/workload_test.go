package workload

import (
	"testing"

	"prague/internal/core"
	"prague/internal/dataset"
	"prague/internal/graph"
	"prague/internal/index"
	"prague/internal/mining"
)

func fixture(t *testing.T) ([]*graph.Graph, *index.Set) {
	t.Helper()
	db, err := dataset.Molecules(dataset.MoleculeOptions{NumGraphs: 300, Seed: 42, MeanNodes: 12, MaxNodes: 40})
	if err != nil {
		t.Fatal(err)
	}
	res, err := mining.Mine(db, mining.Options{MinSupportRatio: 0.1, MaxSize: 6, IncludeZeroSupportPairs: true})
	if err != nil {
		t.Fatal(err)
	}
	idx, err := index.Build(res, 0.1, 3)
	if err != nil {
		t.Fatal(err)
	}
	return db, idx
}

func validSpec(t *testing.T, q Query) {
	t.Helper()
	if len(q.Edges) == 0 {
		t.Fatal("empty query spec")
	}
	// Every prefix must be connected (drawable).
	inFrag := map[int]bool{}
	for i, e := range q.Edges {
		if i > 0 && !inFrag[e[0]] && !inFrag[e[1]] {
			t.Fatalf("query %s: edge %d disconnected from prefix", q.Name, i)
		}
		inFrag[e[0]], inFrag[e[1]] = true, true
	}
	g := q.Graph()
	if !g.Connected() {
		t.Fatalf("query %s disconnected", q.Name)
	}
}

func TestContainmentQueries(t *testing.T) {
	db, _ := fixture(t)
	qs, err := ContainmentQueries(db, 6, nil, 7)
	if err != nil {
		t.Fatal(err)
	}
	if len(qs) != 6 {
		t.Fatalf("got %d queries", len(qs))
	}
	for _, q := range qs {
		validSpec(t, q)
		if q.Class != "containment" {
			t.Errorf("query %s class %q", q.Name, q.Class)
		}
		// Must have at least one exact match by construction.
		qg := q.Graph()
		found := false
		for _, g := range db {
			if graph.SubgraphIsomorphic(qg, g) {
				found = true
				break
			}
		}
		if !found {
			t.Errorf("containment query %s has no match", q.Name)
		}
	}
}

func TestFindSimilarityQueries(t *testing.T) {
	db, idx := fixture(t)
	best, worst, err := FindSimilarityQueries(db, idx, 1, 3, Options{
		Seed: 11, Sigma: 2, MinEdges: 4, MaxEdges: 6, Attempts: 150,
	})
	if err != nil {
		t.Fatal(err)
	}
	if len(best) == 0 || len(worst) == 0 {
		t.Fatalf("best=%d worst=%d", len(best), len(worst))
	}
	for _, q := range append(append([]Query{}, best...), worst...) {
		validSpec(t, q)
		if q.EmptyAtStep == 0 {
			t.Errorf("query %s never emptied Rq", q.Name)
		}
		// Selected similarity queries must not have exact matches.
		qg := q.Graph()
		for _, g := range db {
			if graph.SubgraphIsomorphic(qg, g) {
				t.Errorf("similarity query %s has an exact match in graph %d", q.Name, g.ID)
				break
			}
		}
	}
}

// formulated draws q on a fresh engine at σ = sigma and checks that every
// edge yielded one outcome.
func formulated(t *testing.T, db []*graph.Graph, idx *index.Set, q Query, sigma int) (*core.Engine, []core.StepOutcome) {
	t.Helper()
	e, err := core.New(db, idx, sigma)
	if err != nil {
		t.Fatal(err)
	}
	outs, err := q.Formulate(e)
	if err != nil {
		t.Fatal(err)
	}
	if len(outs) != q.Size() {
		t.Fatalf("%s: %d outcomes for %d edges", q.Name, len(outs), q.Size())
	}
	for i, out := range outs {
		if out.Step != i+1 {
			t.Fatalf("%s: outcome %d has step %d", q.Name, i, out.Step)
		}
	}
	return e, outs
}

func TestFormulate(t *testing.T) {
	db, idx := fixture(t)
	cqs, err := ContainmentQueries(db, 2, []int{4, 5}, 5)
	if err != nil {
		t.Fatal(err)
	}
	for _, q := range cqs {
		e, outs := formulated(t, db, idx, q, 2)
		for _, out := range outs {
			if out.NeedsChoice {
				t.Fatalf("%s: containment query emptied Rq at step %d", q.Name, out.Step)
			}
		}
		if e.SimilarityMode() {
			t.Errorf("%s: containment query left in similarity mode", q.Name)
		}
	}

	_, worst, err := FindSimilarityQueries(db, idx, 0, 2, Options{
		Seed: 11, Sigma: 2, MinEdges: 4, MaxEdges: 6, Attempts: 150,
	})
	if err != nil {
		t.Fatal(err)
	}
	for _, q := range worst {
		e, outs := formulated(t, db, idx, q, 2)
		first := 0
		for _, out := range outs {
			if out.NeedsChoice {
				first = out.Step
				break
			}
		}
		if first != q.EmptyAtStep {
			t.Errorf("%s: first NeedsChoice at step %d, selection saw %d", q.Name, first, q.EmptyAtStep)
		}
		if !e.SimilarityMode() || e.AwaitingChoice() {
			t.Errorf("%s: similarity search not taken after NeedsChoice (mode %v, awaiting %v)",
				q.Name, e.SimilarityMode(), e.AwaitingChoice())
		}
	}
}

// TestFormulatedSimilarityMatchesDefinition3 runs similarity queries drawn
// by Formulate and compares their results with the Definition-3 oracle.
func TestFormulatedSimilarityMatchesDefinition3(t *testing.T) {
	db, idx := fixture(t)
	best, worst, err := FindSimilarityQueries(db, idx, 1, 1, Options{
		Seed: 3, Sigma: 2, MinEdges: 4, MaxEdges: 6, Attempts: 150,
	})
	if err != nil {
		t.Fatal(err)
	}
	for _, q := range append(best, worst...) {
		e, _ := formulated(t, db, idx, q, 2)
		results, err := e.Run()
		if err != nil {
			t.Fatal(err)
		}
		qg := q.Graph()
		want := map[int]int{}
		for _, g := range db {
			if d := graph.SubgraphDistance(qg, g); d <= 2 {
				want[g.ID] = d
			}
		}
		if len(results) != len(want) {
			t.Fatalf("%s: %d results, want %d", q.Name, len(results), len(want))
		}
		for _, r := range results {
			if d, ok := want[r.GraphID]; !ok || d != r.Distance {
				t.Fatalf("%s: graph %d distance %d, want %d (present %v)", q.Name, r.GraphID, r.Distance, d, ok)
			}
		}
	}
}

func TestPermutedKeepsGraphAndChangesOrder(t *testing.T) {
	db, _ := fixture(t)
	qs, err := ContainmentQueries(db, 1, []int{6}, 3)
	if err != nil {
		t.Fatal(err)
	}
	q := qs[0]
	p := q.Permuted(99)
	validSpec(t, p)
	if graph.CanonicalCode(p.Graph()) != graph.CanonicalCode(q.Graph()) {
		t.Fatal("permutation changed the query graph")
	}
	if sameOrder(p.Edges, q.Edges) {
		t.Log("note: permutation equals default order (no alternative found)")
	}
}

func TestQuerySize(t *testing.T) {
	q := Query{Edges: [][2]int{{0, 1}, {1, 2}}}
	if q.Size() != 2 {
		t.Error("Size wrong")
	}
}
