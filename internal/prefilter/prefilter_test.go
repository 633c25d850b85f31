package prefilter

import (
	"math/rand"
	"testing"

	"prague/internal/graph"
	"prague/internal/raceflag"
)

// randGraph draws a connected graph over labels, with an occasional bond
// label.
func randGraph(r *rand.Rand, labels []string) *graph.Graph {
	nodes := 2 + r.Intn(6)
	g := graph.New(-1)
	for v := 0; v < nodes; v++ {
		g.AddNode(labels[r.Intn(len(labels))])
	}
	bonds := []string{"", "", "", "2"}
	for v := 1; v < nodes; v++ {
		if err := g.AddLabeledEdge(v, r.Intn(v), bonds[r.Intn(len(bonds))]); err != nil {
			panic(err)
		}
	}
	return g
}

func path(labels ...string) *graph.Graph {
	g := graph.New(-1)
	for i, l := range labels {
		g.AddNode(l)
		if i > 0 {
			g.MustAddEdge(i-1, i)
		}
	}
	return g
}

// probeFrags are the query fragments the parity checks profile: common,
// repeated, rare and unseen labels, and an unseen bond.
func probeFrags() []*graph.Graph {
	bond := graph.New(-1)
	bond.AddNode("C")
	bond.AddNode("C")
	if err := bond.AddLabeledEdge(0, 1, "3"); err != nil {
		panic(err)
	}
	return []*graph.Graph{
		path("C", "C"), path("C", "N"), path("C", "C", "C"), path("N", "C", "N"),
		path("O", "C", "O"), path("S", "C"), path("C", "Hg"), path("Hg", "C", "Hg"), bond,
	}
}

// samePredictions checks that got answers every prefilter question about
// frags the way want does, for every id below n.
func samePredictions(t *testing.T, got, want *Table, n int) {
	t.Helper()
	for fi, f := range probeFrags() {
		gp, wp := got.Profile(f), want.Profile(f)
		if gp.Unknown != wp.Unknown || gp.RepeatedFeatures() != wp.RepeatedFeatures() {
			t.Fatalf("frag %d: unknown/repeated %v/%v, rebuild %v/%v",
				fi, gp.Unknown, gp.RepeatedFeatures(), wp.Unknown, wp.RepeatedFeatures())
		}
		for id := -1; id <= n; id++ {
			gr, wr := got.Row(id), want.Row(id)
			if g, w := gp.Admits(gr), wp.Admits(wr); g != w {
				t.Fatalf("frag %d graph %d: count check %v, rebuild %v", fi, id, g, w)
			}
		}
	}
}

// TestMaintainedTableEqualsBuild applies a random insert/delete script to a
// table and, after every step, compares it with a from-scratch Build over
// the same live graphs. Inserted graphs bring labels (Hg, P) and a bond the
// initial graphs lack, so the vocabulary grows and columns go dead.
func TestMaintainedTableEqualsBuild(t *testing.T) {
	r := rand.New(rand.NewSource(3))
	slots := map[int]*graph.Graph{}
	var ids []int
	for id := 0; id < 20; id++ {
		slots[id] = randGraph(r, []string{"C", "C", "N", "O"})
		ids = append(ids, id)
	}
	lookup := func(id int) *graph.Graph { return slots[id] }
	tab := Build(ids, lookup)
	next := len(ids)
	for step := 0; step < 60; step++ {
		if r.Intn(2) == 0 || len(slots) < 3 {
			g := randGraph(r, []string{"C", "N", "Hg", "P"})
			tab = tab.Insert(next, g)
			slots[next] = g
			ids = append(ids, next)
			next++
		} else {
			k := r.Intn(len(ids))
			tab = tab.Delete(ids[k])
			delete(slots, ids[k])
			ids = append(ids[:k], ids[k+1:]...)
		}
		want := Build(ids, lookup)
		if err := tab.Diff(want); err != nil {
			t.Fatalf("step %d: %v", step, err)
		}
		samePredictions(t, tab, want, next)
	}
}

// TestDeadColumnIsUnknown: once the only graph with a label is deleted, a
// fragment using it is Unknown again, exactly as before the insert.
func TestDeadColumnIsUnknown(t *testing.T) {
	g0, g1 := path("C", "C", "N"), path("C", "Hg")
	slots := []*graph.Graph{g0}
	base := Build([]int{0}, func(id int) *graph.Graph { return slots[id] })
	q := path("C", "Hg")
	if p := base.Profile(q); !p.Unknown {
		t.Fatalf("Hg before insert: %+v, want Unknown", p)
	}
	with := base.Insert(1, g1)
	if p := with.Profile(q); p.Unknown || !p.Admits(with.Row(1)) || p.Admits(with.Row(0)) {
		t.Fatalf("Hg after insert: %+v, admits graph 1 %v, graph 0 %v", p, p.Admits(with.Row(1)), p.Admits(with.Row(0)))
	}
	if p := base.Profile(q); !p.Unknown {
		t.Fatal("Insert changed its receiver")
	}
	without := with.Delete(1)
	if p := without.Profile(q); !p.Unknown {
		t.Fatalf("Hg after delete: %+v, want Unknown", p)
	}
	if err := without.Diff(base); err != nil {
		t.Fatal(err)
	}
	if without.Delete(1) != without {
		t.Fatal("deleting a dead id must return the table itself")
	}
}

// The count check runs once per (fragment, candidate) pair on the verify
// path: it is pinned at zero allocations.
func TestPrefilterAllocBudget(t *testing.T) {
	if raceflag.Enabled {
		t.Skip("allocation budgets are not meaningful under -race")
	}
	q := path("C", "C", "O", "N")
	g := path("C", "C", "O", "N", "C")
	tab := Build([]int{0}, func(int) *graph.Graph { return g })
	p := tab.Profile(q)
	if n := testing.AllocsPerRun(200, func() { p.Admits(tab.Row(0)) }); n != 0 {
		t.Errorf("Profile.Admits allocates %.1f/op, budget 0", n)
	}
}

// features names every node label and edge triple of g.
func features(g *graph.Graph) map[string]bool {
	out := map[string]bool{}
	for node := range g.NumNodes() {
		out["label "+g.Label(node)] = true
	}
	for i := range g.Edges() {
		k := tripleAt(g, i)
		out["triple "+k.a+"\x00"+k.e+"\x00"+k.b] = true
	}
	return out
}

// subFragment grows a connected fragment of g from a random node, one edge of
// g at a time, up to maxEdges edges.
func subFragment(r *rand.Rand, g *graph.Graph, maxEdges int) *graph.Graph {
	f := graph.New(-1)
	start := r.Intn(g.NumNodes())
	at := map[int]int{start: f.AddNode(g.Label(start))}
	taken := map[int]bool{}
	for len(taken) < maxEdges {
		var next []int
		for i, e := range g.Edges() {
			_, inU := at[e.U]
			_, inV := at[e.V]
			if !taken[i] && (inU || inV) {
				next = append(next, i)
			}
		}
		if len(next) == 0 {
			break
		}
		i := next[r.Intn(len(next))]
		taken[i] = true
		e := g.Edges()[i]
		for _, v := range []int{e.U, e.V} {
			if _, ok := at[v]; !ok {
				at[v] = f.AddNode(g.Label(v))
			}
		}
		if err := f.AddLabeledEdge(at[e.U], at[e.V], g.EdgeLabelAt(i)); err != nil {
			panic(err)
		}
	}
	return f
}

// FuzzProfileAdmits pins the count filter's soundness against VF2 itself:
// over a table of random graphs, every graph that contains a fragment by
// subgraph isomorphism has a row its Profile admits, and a fragment using a
// label or edge triple that no graph has is Unknown and admits no row.
// Fragments are cut from the graphs (so containment is common) or drawn at
// random with an occasional label the graphs lack.
func FuzzProfileAdmits(f *testing.F) {
	for s := int64(0); s < 8; s++ {
		f.Add(s)
	}
	f.Fuzz(func(t *testing.T, seed int64) {
		r := rand.New(rand.NewSource(seed))
		gs := make([]*graph.Graph, 4+r.Intn(8))
		ids := make([]int, len(gs))
		have := map[string]bool{}
		for i := range gs {
			gs[i] = randGraph(r, []string{"C", "C", "N", "O"})
			ids[i] = i
			for k := range features(gs[i]) {
				have[k] = true
			}
		}
		tab := Build(ids, func(id int) *graph.Graph { return gs[id] })
		for k := 0; k < 8; k++ {
			var frag *graph.Graph
			if k%2 == 0 {
				frag = subFragment(r, gs[r.Intn(len(gs))], 1+r.Intn(4))
			} else {
				frag = randGraph(r, []string{"C", "N", "O", "Hg"})
			}
			oov := false
			for k := range features(frag) {
				oov = oov || !have[k]
			}
			p := tab.Profile(frag)
			if p.Unknown != oov {
				t.Fatalf("fragment %d: Unknown %v, out of vocabulary %v", k, p.Unknown, oov)
			}
			for id, g := range gs {
				admits := p.Admits(tab.Row(id))
				if oov && admits {
					t.Fatalf("fragment %d is out of vocabulary, yet graph %d's row admits it", k, id)
				}
				if !admits && graph.SubgraphIsomorphic(frag, g) {
					t.Fatalf("fragment %d: graph %d contains it, its row does not admit it (needs %+v)", k, id, p.Needs)
				}
			}
		}
	})
}
