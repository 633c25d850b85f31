package gblender

import (
	"math/rand"
	"testing"

	"prague/internal/graph"
	"prague/internal/index"
	"prague/internal/intset"
	"prague/internal/mining"
)

func makeFixture(t *testing.T, seed int64, n int) ([]*graph.Graph, *index.Set) {
	t.Helper()
	r := rand.New(rand.NewSource(seed))
	labels := []string{"C", "C", "C", "N", "O"}
	var db []*graph.Graph
	for i := 0; i < n; i++ {
		nodes := 4 + r.Intn(5)
		g := graph.New(i)
		for v := 0; v < nodes; v++ {
			g.AddNode(labels[r.Intn(len(labels))])
		}
		for v := 1; v < nodes; v++ {
			g.MustAddEdge(v, r.Intn(v))
		}
		for k := 0; k < r.Intn(2); k++ {
			u, v := r.Intn(nodes), r.Intn(nodes)
			if u != v && !g.HasEdge(u, v) {
				g.MustAddEdge(u, v)
			}
		}
		db = append(db, g)
	}
	res, err := mining.Mine(db, mining.Options{MinSupportRatio: 0.25, MaxSize: 7, IncludeZeroSupportPairs: true})
	if err != nil {
		t.Fatal(err)
	}
	idx, err := index.Build(res, 0.25, 3)
	if err != nil {
		t.Fatal(err)
	}
	return db, idx
}

func TestContainmentMatchesBruteForce(t *testing.T) {
	db, idx := makeFixture(t, 11, 30)
	r := rand.New(rand.NewSource(11))
	trials := 0
	for attempt := 0; attempt < 40 && trials < 10; attempt++ {
		g := db[r.Intn(len(db))]
		subs := graph.ConnectedEdgeSubgraphs(g)
		k := 2 + r.Intn(3)
		if k >= len(subs) || len(subs[k]) == 0 {
			continue
		}
		qg := subs[k][0]
		e, err := New(db, idx)
		if err != nil {
			t.Fatal(err)
		}
		if err := drawGraph(e, qg); err != nil {
			t.Fatal(err)
		}
		trials++
		got, err := e.Run()
		if err != nil {
			t.Fatal(err)
		}
		var want []int
		for _, dg := range db {
			if graph.SubgraphIsomorphic(qg, dg) {
				want = append(want, dg.ID)
			}
		}
		if !intset.Equal(got, want) {
			t.Fatalf("results %v != brute force %v", got, want)
		}
	}
	if trials < 5 {
		t.Fatalf("only %d trials ran", trials)
	}
}

// drawGraph formulates qg edge by edge with connected prefixes.
func drawGraph(e *Engine, qg *graph.Graph) error {
	ids := make([]int, qg.NumNodes())
	for i := 0; i < qg.NumNodes(); i++ {
		ids[i] = e.AddNode(qg.Label(i))
	}
	inFrag := map[int]bool{}
	used := make([]bool, qg.NumEdges())
	remaining := qg.NumEdges()
	for remaining > 0 {
		for i, ed := range qg.Edges() {
			if used[i] {
				continue
			}
			if len(inFrag) == 0 || inFrag[ed.U] || inFrag[ed.V] {
				if _, err := e.AddEdge(ids[ed.U], ids[ed.V]); err != nil {
					return err
				}
				used[i] = true
				inFrag[ed.U], inFrag[ed.V] = true, true
				remaining--
				break
			}
		}
	}
	return nil
}

func TestEmptyResultForNoMatch(t *testing.T) {
	db, idx := makeFixture(t, 12, 20)
	e, err := New(db, idx)
	if err != nil {
		t.Fatal(err)
	}
	// A star of four O nodes around an O: extremely unlikely in the C-heavy
	// fixture.
	c := e.AddNode("O")
	for i := 0; i < 4; i++ {
		v := e.AddNode("O")
		if _, err := e.AddEdge(c, v); err != nil {
			t.Fatal(err)
		}
	}
	got, err := e.Run()
	if err != nil {
		t.Fatal(err)
	}
	qg, _ := e.Query().Graph()
	for _, g := range db {
		if graph.SubgraphIsomorphic(qg, g) {
			t.Skip("fixture unexpectedly contains the query")
		}
	}
	if len(got) != 0 {
		t.Errorf("expected empty results, got %v", got)
	}
}

func TestRunEmptyQuery(t *testing.T) {
	db, idx := makeFixture(t, 14, 10)
	e, err := New(db, idx)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := e.Run(); err == nil {
		t.Error("running an empty query succeeded")
	}
}
