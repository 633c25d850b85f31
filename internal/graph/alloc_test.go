package graph

import (
	"math/rand"
	"testing"

	"prague/internal/raceflag"
)

// allocFixture builds a query fragment and a data graph of AIDS-like shape
// for steady-state allocation measurement.
func allocFixture() (q, g *Graph) {
	q = New(0)
	q.AddNode("C")
	q.AddNode("C")
	q.AddNode("O")
	q.MustAddEdge(0, 1)
	q.MustAddEdge(1, 2)

	r := rand.New(rand.NewSource(7))
	labels := []string{"C", "C", "C", "N", "O", "S"}
	g = New(1)
	for v := 0; v < 24; v++ {
		g.AddNode(labels[r.Intn(len(labels))])
	}
	for v := 1; v < 24; v++ {
		g.MustAddEdge(v, r.Intn(v))
	}
	for k := 0; k < 8; k++ {
		u, v := r.Intn(24), r.Intn(24)
		if u != v && !g.HasEdge(u, v) {
			g.MustAddEdge(u, v)
		}
	}
	return q, g
}

// The VF2 verify path runs once per candidate graph per action — it is the
// hot path the pool exists for. Budgets are pinned at zero: any allocation
// here is a regression multiplied by every candidate of every query. The
// queries cover label counting (two labels, and a label g lacks), the
// single-label case, and bitsets of more than one word: a 65-node path in a
// 130-node path.
func TestVF2AllocBudget(t *testing.T) {
	if raceflag.Enabled {
		t.Skip("allocation budgets are not meaningful under -race")
	}
	twoLabels, g := allocFixture()
	fn := func([]int) bool { return false }
	for _, tc := range []struct {
		name string
		q, g *Graph
	}{
		{"two labels", twoLabels, g},
		{"single label", path("C", "C", "C"), g},
		{"label absent from g", path("C", "P"), g},
		{"65-node path in 130", cutPath(65, 0), cutPath(130, 0)},
	} {
		q, g := tc.q, tc.g
		// Warm the pool on this goroutine.
		for i := 0; i < 10; i++ {
			SubgraphIsomorphic(q, g)
			CountEmbeddings(q, g, 0)
		}
		if n := testing.AllocsPerRun(200, func() {
			SubgraphIsomorphic(q, g)
		}); n != 0 {
			t.Errorf("%s: SubgraphIsomorphic allocates %.1f/op in steady state, budget 0", tc.name, n)
		}
		if n := testing.AllocsPerRun(200, func() {
			CountEmbeddings(q, g, 0)
		}); n != 0 {
			t.Errorf("%s: CountEmbeddings allocates %.1f/op in steady state, budget 0", tc.name, n)
		}
		if n := testing.AllocsPerRun(200, func() {
			ForEachEmbedding(q, g, fn)
		}); n != 0 {
			t.Errorf("%s: ForEachEmbedding allocates %.1f/op in steady state, budget 0", tc.name, n)
		}
	}
}

// MinDFSCode recycles its embedding arenas and its edge-id table through a
// pool; in steady state the only allocation is the caller-owned copy of the
// resulting code. CanonicalCode encodes straight from the pooled code, so
// its only allocation is the string itself: no fmt, no map, no copy.
func TestMinDFSCodeAllocBudget(t *testing.T) {
	if raceflag.Enabled {
		t.Skip("allocation budgets are not meaningful under -race")
	}
	_, g := allocFixture()
	for i := 0; i < 10; i++ {
		MinDFSCode(g)
		CanonicalCode(g)
	}
	if n := testing.AllocsPerRun(100, func() {
		MinDFSCode(g)
	}); n > 1 {
		t.Errorf("MinDFSCode allocates %.1f/op in steady state, budget 1", n)
	}
	if n := testing.AllocsPerRun(100, func() {
		CanonicalCode(g)
	}); n > 1 {
		t.Errorf("CanonicalCode allocates %.1f/op in steady state, budget 1", n)
	}
}
