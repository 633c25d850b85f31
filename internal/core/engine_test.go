package core

import (
	"errors"
	"math/rand"
	"testing"

	"prague/internal/graph"
	"prague/internal/index"
	"prague/internal/intset"
	"prague/internal/mining"
	"prague/internal/spig"
)

// fixture bundles a database and its indexes.
type fixture struct {
	db  []*graph.Graph
	idx *index.Set
}

func makeFixture(t *testing.T, seed int64, n int, alpha float64) *fixture {
	t.Helper()
	r := rand.New(rand.NewSource(seed))
	labels := []string{"C", "C", "C", "C", "N", "O", "S"}
	var db []*graph.Graph
	for i := 0; i < n; i++ {
		nodes := 4 + r.Intn(6)
		g := graph.New(i)
		for v := 0; v < nodes; v++ {
			g.AddNode(labels[r.Intn(len(labels))])
		}
		for v := 1; v < nodes; v++ {
			g.MustAddEdge(v, r.Intn(v))
		}
		for k := 0; k < r.Intn(3); k++ {
			u, v := r.Intn(nodes), r.Intn(nodes)
			if u != v && !g.HasEdge(u, v) {
				g.MustAddEdge(u, v)
			}
		}
		db = append(db, g)
	}
	res, err := mining.Mine(db, mining.Options{MinSupportRatio: alpha, MaxSize: 8, IncludeZeroSupportPairs: true})
	if err != nil {
		t.Fatal(err)
	}
	idx, err := index.Build(res, alpha, 3)
	if err != nil {
		t.Fatal(err)
	}
	return &fixture{db: db, idx: idx}
}

// querySpec is a query as node labels + edges in formulation order.
type querySpec struct {
	labels []string
	edges  [][2]int
}

// randomQuerySpec grows a random connected query: each edge touches the
// fragment built so far, mimicking visual formulation.
func randomQuerySpec(r *rand.Rand, labels []string, nEdges int) querySpec {
	var spec querySpec
	spec.labels = append(spec.labels, labels[r.Intn(len(labels))], labels[r.Intn(len(labels))])
	spec.edges = append(spec.edges, [2]int{0, 1})
	present := map[[2]int]bool{{0, 1}: true}
	for len(spec.edges) < nEdges {
		if r.Intn(3) > 0 || len(spec.labels) < 3 {
			// Forward edge to a fresh node anchored at an existing one.
			anchor := r.Intn(len(spec.labels))
			spec.labels = append(spec.labels, labels[r.Intn(len(labels))])
			nv := len(spec.labels) - 1
			spec.edges = append(spec.edges, [2]int{anchor, nv})
			present[key2(anchor, nv)] = true
		} else {
			// Backward edge between existing nodes.
			a, b := r.Intn(len(spec.labels)), r.Intn(len(spec.labels))
			if a != b && !present[key2(a, b)] {
				spec.edges = append(spec.edges, [2]int{a, b})
				present[key2(a, b)] = true
			}
		}
	}
	return spec
}

func key2(a, b int) [2]int {
	if a > b {
		a, b = b, a
	}
	return [2]int{a, b}
}

// formulate drives the engine through the spec, choosing similarity whenever
// prompted, and returns the per-step outcomes.
func formulate(t *testing.T, e *Engine, spec querySpec) []StepOutcome {
	t.Helper()
	ids := make([]int, len(spec.labels))
	for i, l := range spec.labels {
		ids[i] = e.AddNode(l)
	}
	var outs []StepOutcome
	for _, ed := range spec.edges {
		out, err := e.AddEdge(ids[ed[0]], ids[ed[1]])
		if err != nil {
			t.Fatal(err)
		}
		if out.NeedsChoice {
			out = e.ChooseSimilarity()
		}
		outs = append(outs, out)
	}
	return outs
}

// oracle computes the ground-truth similarity answer set per Definition 3.
func oracle(db []*graph.Graph, q *graph.Graph, sigma int) map[int]int {
	want := map[int]int{}
	for _, g := range db {
		if d := graph.SubgraphDistance(q, g); d <= sigma {
			want[g.ID] = d
		}
	}
	return want
}

func TestNewValidation(t *testing.T) {
	f := makeFixture(t, 1, 10, 0.3)
	if _, err := New(f.db, f.idx, -1); err == nil {
		t.Error("negative σ accepted")
	}
	bad := []*graph.Graph{graph.New(5)}
	if _, err := New(bad, f.idx, 1); err == nil {
		t.Error("non-dense graph ids accepted")
	}
	e, err := New(f.db, f.idx, 2)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := e.Run(); err == nil {
		t.Error("running an empty query succeeded")
	}
}

func TestContainmentQueryMatchesBruteForce(t *testing.T) {
	f := makeFixture(t, 2, 40, 0.25)
	r := rand.New(rand.NewSource(2))
	trials := 0
	for attempt := 0; attempt < 60 && trials < 15; attempt++ {
		// Sample a real subgraph of a data graph so exact matches exist.
		g := f.db[r.Intn(len(f.db))]
		subs := graph.ConnectedEdgeSubgraphs(g)
		k := 2 + r.Intn(3)
		if k >= len(subs) || len(subs[k]) == 0 {
			continue
		}
		qg := subs[k][r.Intn(len(subs[k]))]
		spec := specFromGraph(qg)
		e, err := New(f.db, f.idx, 2)
		if err != nil {
			t.Fatal(err)
		}
		outs := formulate(t, e, spec)
		if e.SimilarityMode() {
			continue // fragment ordering hit an empty prefix; skip
		}
		trials++
		last := outs[len(outs)-1]
		if last.Status != StatusFrequent && last.Status != StatusInfrequent {
			t.Fatalf("query with exact matches classified %v", last.Status)
		}
		// Invariant: Rq is a superset of the true answers.
		truth := oracle(f.db, qg, 0)
		rq := e.Rq()
		for id := range truth {
			if !intset.Contains(rq, id) {
				t.Fatalf("Rq misses true answer %d", id)
			}
		}
		results, err := e.Run()
		if err != nil {
			t.Fatal(err)
		}
		if len(results) != len(truth) {
			t.Fatalf("got %d results, want %d", len(results), len(truth))
		}
		for _, res := range results {
			if res.Distance != 0 {
				t.Fatalf("containment result with distance %d", res.Distance)
			}
			if _, ok := truth[res.GraphID]; !ok {
				t.Fatalf("false positive %d", res.GraphID)
			}
		}
	}
	if trials < 5 {
		t.Fatalf("only %d usable trials", trials)
	}
}

// specFromGraph converts a small graph into a formulation spec whose edges
// are ordered so every prefix is connected.
func specFromGraph(g *graph.Graph) querySpec {
	var spec querySpec
	for i := 0; i < g.NumNodes(); i++ {
		spec.labels = append(spec.labels, g.Label(i))
	}
	inFrag := map[int]bool{}
	used := make([]bool, g.NumEdges())
	// Start from edge 0.
	first := g.Edges()[0]
	spec.edges = append(spec.edges, [2]int{first.U, first.V})
	used[0] = true
	inFrag[first.U], inFrag[first.V] = true, true
	for len(spec.edges) < g.NumEdges() {
		for i, e := range g.Edges() {
			if used[i] {
				continue
			}
			if inFrag[e.U] || inFrag[e.V] {
				used[i] = true
				inFrag[e.U], inFrag[e.V] = true, true
				spec.edges = append(spec.edges, [2]int{e.U, e.V})
				break
			}
		}
	}
	return spec
}

func TestSimilarityQueryMatchesBruteForce(t *testing.T) {
	f := makeFixture(t, 3, 35, 0.3)
	r := rand.New(rand.NewSource(3))
	labels := []string{"C", "N", "O", "S"}
	simTrials := 0
	for trial := 0; trial < 12; trial++ {
		spec := randomQuerySpec(r, labels, 4+r.Intn(2))
		sigma := 1 + r.Intn(2)
		e, err := New(f.db, f.idx, sigma)
		if err != nil {
			t.Fatal(err)
		}
		formulate(t, e, spec)
		if e.SimilarityMode() {
			simTrials++
		}
		qg, _ := e.Query().Graph()
		results, err := e.Run()
		if err != nil {
			t.Fatal(err)
		}
		truth := oracle(f.db, qg, sigma)
		exactOnly := false
		if !e.SimilarityMode() {
			// Containment mode returns only exact matches when any exist.
			if anyZero(truth) {
				exactOnly = true
			}
		}
		got := map[int]int{}
		for _, res := range results {
			got[res.GraphID] = res.Distance
		}
		if exactOnly {
			for id, d := range truth {
				if d == 0 {
					if gd, ok := got[id]; !ok || gd != 0 {
						t.Fatalf("trial %d: missing exact match %d", trial, id)
					}
				}
			}
			for id, d := range got {
				if d != 0 || truth[id] != 0 {
					t.Fatalf("trial %d: unexpected result %d@%d in exact mode", trial, id, d)
				}
			}
			continue
		}
		if len(got) != len(truth) {
			t.Fatalf("trial %d (σ=%d): got %d results, want %d", trial, sigma, len(got), len(truth))
		}
		for id, d := range truth {
			if got[id] != d {
				t.Fatalf("trial %d: graph %d distance %d, want %d", trial, id, got[id], d)
			}
		}
		// Ranked by distance.
		for i := 1; i < len(results); i++ {
			if results[i-1].Distance > results[i].Distance {
				t.Fatalf("trial %d: results not ordered by distance", trial)
			}
		}
	}
	if simTrials == 0 {
		t.Log("note: no trial degraded to similarity mode (seed-dependent)")
	}
}

func anyZero(m map[int]int) bool {
	for _, d := range m {
		if d == 0 {
			return true
		}
	}
	return false
}

func TestEmptyRqTriggersChoiceAndSimilarity(t *testing.T) {
	f := makeFixture(t, 4, 30, 0.3)
	// Build a query with an edge whose label pair cannot occur: the
	// zero-support DIF prunes Rq to empty immediately.
	e, err := New(f.db, f.idx, 2)
	if err != nil {
		t.Fatal(err)
	}
	// S-S edges are rare to nonexistent in the fixture; find a pair that
	// yields an empty candidate set by trying a few.
	a := e.AddNode("S")
	b := e.AddNode("S")
	out, err := e.AddEdge(a, b)
	if err != nil {
		t.Fatal(err)
	}
	if out.ExactCount > 0 {
		t.Skip("fixture contains S-S edges; scenario not reproducible with this seed")
	}
	if !out.NeedsChoice || !e.AwaitingChoice() {
		t.Fatal("empty Rq did not prompt a choice")
	}
	out = e.ChooseSimilarity()
	if !e.SimilarityMode() || e.AwaitingChoice() {
		t.Fatal("ChooseSimilarity did not switch modes")
	}
	if out.Status != StatusSimilar {
		t.Errorf("status %v, want similar", out.Status)
	}
}

func TestModificationEquivalentToScratch(t *testing.T) {
	f := makeFixture(t, 5, 30, 0.3)
	r := rand.New(rand.NewSource(5))
	labels := []string{"C", "N", "O"}
	for trial := 0; trial < 10; trial++ {
		spec := randomQuerySpec(r, labels, 5)
		e, err := New(f.db, f.idx, 2)
		if err != nil {
			t.Fatal(err)
		}
		formulate(t, e, spec)
		// Delete a random deletable edge.
		var deletable []int
		for _, s := range e.Query().Steps() {
			if e.Query().CanDelete(s) {
				deletable = append(deletable, s)
			}
		}
		if len(deletable) == 0 {
			continue
		}
		del := deletable[r.Intn(len(deletable))]
		if _, err := e.DeleteEdge(del); err != nil {
			t.Fatal(err)
		}
		if e.AwaitingChoice() {
			e.ChooseSimilarity()
		}
		gotResults, err := e.Run()
		if err != nil {
			t.Fatal(err)
		}
		// Fresh engine over the modified query.
		qg, _ := e.Query().Graph()
		fresh, err := New(f.db, f.idx, 2)
		if err != nil {
			t.Fatal(err)
		}
		formulate(t, fresh, specFromGraph(qg))
		if fresh.SimilarityMode() != e.SimilarityMode() {
			// Mode history can legitimately differ (the modified engine
			// may have entered similarity mode before the deletion); in
			// that case result sets are compared per Definition 3 below
			// only when both are in the same mode.
			continue
		}
		wantResults, err := fresh.Run()
		if err != nil {
			t.Fatal(err)
		}
		if len(gotResults) != len(wantResults) {
			t.Fatalf("trial %d: modified engine %d results, scratch %d", trial, len(gotResults), len(wantResults))
		}
		for i := range gotResults {
			if gotResults[i] != wantResults[i] {
				t.Fatalf("trial %d: result %d differs: %+v vs %+v", trial, i, gotResults[i], wantResults[i])
			}
		}
	}
}

func TestSuggestDeletionMaximizesCandidates(t *testing.T) {
	f := makeFixture(t, 6, 30, 0.3)
	r := rand.New(rand.NewSource(6))
	labels := []string{"C", "N", "O", "S"}
	tested := 0
	for trial := 0; trial < 20 && tested < 8; trial++ {
		spec := randomQuerySpec(r, labels, 4)
		e, err := New(f.db, f.idx, 2)
		if err != nil {
			t.Fatal(err)
		}
		formulate(t, e, spec)
		sug, err := e.SuggestDeletion()
		if err != nil {
			continue
		}
		tested++
		// Brute force: for every deletable edge, |exact candidates of q'|.
		bestCount := -1
		for _, s := range e.Query().Steps() {
			if !e.Query().CanDelete(s) {
				continue
			}
			c := e.Query().Clone()
			if err := c.DeleteEdge(s); err != nil {
				t.Fatal(err)
			}
			qg, _ := c.Graph()
			// Ground-truth upper bound via brute force containment.
			count := 0
			for _, g := range f.db {
				if graph.SubgraphIsomorphic(qg, g) {
					count++
				}
			}
			if count > bestCount {
				bestCount = count
			}
		}
		// The suggestion's candidate count is an upper bound on the best
		// true count and must be at least it.
		if sug.Candidates < bestCount {
			t.Fatalf("trial %d: suggestion has %d candidates, brute force best is %d", trial, sug.Candidates, bestCount)
		}
		if !e.Query().CanDelete(sug.Step) {
			t.Fatalf("trial %d: suggested undeletable edge %d", trial, sug.Step)
		}
	}
	if tested == 0 {
		t.Fatal("no trial produced a suggestion")
	}
}

func TestRqSupersetInvariantPerStep(t *testing.T) {
	f := makeFixture(t, 7, 30, 0.25)
	r := rand.New(rand.NewSource(7))
	labels := []string{"C", "N", "O"}
	for trial := 0; trial < 8; trial++ {
		spec := randomQuerySpec(r, labels, 5)
		e, err := New(f.db, f.idx, 2)
		if err != nil {
			t.Fatal(err)
		}
		ids := make([]int, len(spec.labels))
		for i, l := range spec.labels {
			ids[i] = e.AddNode(l)
		}
		for _, ed := range spec.edges {
			out, err := e.AddEdge(ids[ed[0]], ids[ed[1]])
			if err != nil {
				t.Fatal(err)
			}
			if out.NeedsChoice {
				e.ChooseSimilarity()
			}
			if e.SimilarityMode() {
				break
			}
			qg, _ := e.Query().Graph()
			rq := e.Rq()
			for _, g := range f.db {
				if graph.SubgraphIsomorphic(qg, g) && !intset.Contains(rq, g.ID) {
					t.Fatalf("trial %d: Rq misses true match %d at step", trial, g.ID)
				}
			}
		}
	}
}

func TestStatsAccumulate(t *testing.T) {
	f := makeFixture(t, 8, 20, 0.3)
	e, err := New(f.db, f.idx, 2)
	if err != nil {
		t.Fatal(err)
	}
	a := e.AddNode("C")
	b := e.AddNode("C")
	c := e.AddNode("C")
	if _, err := e.AddEdge(a, b); err != nil {
		t.Fatal(err)
	}
	if out, err := e.AddEdge(b, c); err != nil {
		t.Fatal(err)
	} else if out.NeedsChoice {
		e.ChooseSimilarity()
	}
	if len(e.Stats().SpigConstruction) != 2 || len(e.Stats().StepEvaluation) != 2 {
		t.Error("per-step stats not recorded")
	}
	if _, err := e.Run(); err != nil {
		t.Fatal(err)
	}
	if e.Stats().RunTime <= 0 {
		t.Error("SRT not recorded")
	}
}

// TestSixtyFifthEdgeUndrawn draws a 64-edge path, then a 65th edge: the
// engine refuses it with spig.ErrTooManyEdges and undraws it, and once an
// edge is deleted the same edge draws and the query's target vertex is
// there.
func TestSixtyFifthEdgeUndrawn(t *testing.T) {
	fx := makeFixture(t, 3, 20, 0.3)
	e, err := New(fx.db, fx.idx, 2)
	if err != nil {
		t.Fatal(err)
	}
	prev := e.AddNode("C")
	for i := 0; i < spig.MaxLiveEdges; i++ {
		next := e.AddNode("C")
		if _, err := e.AddEdge(prev, next); err != nil {
			t.Fatal(err)
		}
		prev = next
	}
	over := e.AddNode("C")
	if _, err := e.AddEdge(prev, over); !errors.Is(err, spig.ErrTooManyEdges) {
		t.Fatalf("65th live edge: err = %v, want spig.ErrTooManyEdges", err)
	}
	if n := e.Query().Size(); n != spig.MaxLiveEdges {
		t.Fatalf("the refused edge stayed drawn: %d edges", n)
	}
	if _, err := e.DeleteEdge(e.Query().Steps()[0]); err != nil {
		t.Fatal(err)
	}
	if _, err := e.AddEdge(prev, over); err != nil {
		t.Fatalf("the edge after a deletion: %v", err)
	}
	if e.Spigs().Target(e.Query()) == nil {
		t.Fatal("no target vertex for the 64-edge query")
	}
}
