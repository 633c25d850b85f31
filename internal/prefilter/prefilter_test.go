package prefilter

import (
	"hash/fnv"
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

// samePredictions checks that got answers every chooser question about frags
// the way want does, for every id below n.
func samePredictions(t *testing.T, got, want *Table, n int) {
	t.Helper()
	for fi, f := range probeFrags() {
		gp, wp := got.Profile(f), want.Profile(f)
		if gp.Unknown != wp.Unknown || gp.RepeatedFeatures() != wp.RepeatedFeatures() {
			t.Fatalf("frag %d: unknown/repeated %v/%v, rebuild %v/%v",
				fi, gp.Unknown, gp.RepeatedFeatures(), wp.Unknown, wp.RepeatedFeatures())
		}
		if g, w := got.MinLabelSelectivity(f), want.MinLabelSelectivity(f); g != w {
			t.Fatalf("frag %d: selectivity %v, rebuild %v", fi, g, w)
		}
		qs := SigOf(f)
		for id := -1; id <= n; id++ {
			gr, wr := got.Row(id), want.Row(id)
			if g, w := gp.Admits(gr), wp.Admits(wr); g != w {
				t.Fatalf("frag %d graph %d: count check %v, rebuild %v", fi, id, g, w)
			}
			if g, w := qs.Admits(gr), qs.Admits(wr); g != w {
				t.Fatalf("frag %d graph %d: signature check %v, rebuild %v", fi, id, g, w)
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
	if s := without.MinLabelSelectivity(q); s != 0 {
		t.Fatalf("Hg selectivity after delete %v, want 0", s)
	}
	if err := without.Diff(base); err != nil {
		t.Fatal(err)
	}
	if without.Delete(1) != without {
		t.Fatal("deleting a dead id must return the table itself")
	}
}

// TestSigMatchesFNV pins the inline hash to hash/fnv over the concatenated
// key, so signatures stay what they were before the hash was inlined.
func TestSigMatchesFNV(t *testing.T) {
	bit := func(s string) uint64 {
		h := fnv.New32a()
		h.Write([]byte(s))
		return 1 << (h.Sum32() & 63)
	}
	r := rand.New(rand.NewSource(5))
	for i := 0; i < 50; i++ {
		g := randGraph(r, []string{"C", "N", "O", "Hg", "Cl"})
		var want Sig
		for node := range g.NumNodes() {
			l := g.Label(node)
			want.LabelMask |= bit(l)
		}
		for _, e := range g.Edges() {
			la, lb := g.Label(e.U), g.Label(e.V)
			if lb < la {
				la, lb = lb, la
			}
			want.TripleMask |= bit(la + "\x00" + g.EdgeLabel(e.U, e.V) + "\x00" + lb)
		}
		got := SigOf(g)
		if got.LabelMask != want.LabelMask || got.TripleMask != want.TripleMask {
			t.Fatalf("graph %d: masks %x/%x, fnv %x/%x", i, got.LabelMask, got.TripleMask, want.LabelMask, want.TripleMask)
		}
	}
}

// The query side of every prefilter check runs once per fragment per action
// and the data side once per candidate: signatures and both pass checks are
// pinned at zero allocations.
func TestPrefilterAllocBudget(t *testing.T) {
	if raceflag.Enabled {
		t.Skip("allocation budgets are not meaningful under -race")
	}
	q := path("C", "C", "O", "N")
	g := path("C", "C", "O", "N", "C")
	tab := Build([]int{0}, func(int) *graph.Graph { return g })
	p := tab.Profile(q)
	qs := SigOf(q)
	for name, f := range map[string]func(){
		"SigOf":          func() { qs = SigOf(q) },
		"Profile.Admits": func() { p.Admits(tab.Row(0)) },
		"Sig.Admits":     func() { qs.Admits(tab.Row(0)) },
	} {
		if n := testing.AllocsPerRun(200, f); n != 0 {
			t.Errorf("%s allocates %.1f/op, budget 0", name, n)
		}
	}
}
