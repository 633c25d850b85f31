package core

import (
	"context"
	"fmt"
	"math/rand"
	"slices"
	"testing"

	"prague/internal/candcache"
	"prague/internal/graph"
	"prague/internal/intset"
	"prague/internal/spig"
	"prague/internal/store"
)

// TestCarryEqualsRecompute is the carry property: a candidate-cache entry
// rolled forward over mutations equals what a cache-off engine computes at
// the pinned epoch. Sessions sharing one cache hold their queries while the
// store mutates in seeded steps — random inserts and deletes, an insert
// then a delete of the same id, and a gap longer than the history bound —
// and after every step each session's NIF candidate lists and verified
// containment sets are read through the cache and compared with a cache-off
// twin session's, on a monolithic and a 4-shard store.
func TestCarryEqualsRecompute(t *testing.T) {
	fx := makeFixture(t, 61, 40, 0.3)
	for _, shards := range []int{1, 4} {
		t.Run(fmt.Sprintf("%d-shards", shards), func(t *testing.T) {
			var st store.Store
			var err error
			if shards == 1 {
				st, err = store.NewSharded(fx.db, fx.idx, 1)
			} else {
				st, err = store.NewSharded(fx.db, fx.idx, shards)
			}
			if err != nil {
				t.Fatal(err)
			}
			checkCarry(t, st, rand.New(rand.NewSource(int64(97+shards))))
		})
	}
}

func checkCarry(t *testing.T, st store.Store, r *rand.Rand) {
	cache := candcache.New(1<<22, nil)
	var cached, plain []*Engine
	for s := 0; s < 3; s++ {
		spec := randomQuerySpec(r, []string{"C", "C", "N", "O"}, 3+s)
		for _, list := range []*[]*Engine{&cached, &plain} {
			e, err := NewWithStore(st, 2)
			if err != nil {
				t.Fatal(err)
			}
			if list == &cached {
				e.SetCandidateCache(cache)
			}
			formulate(t, e, spec)
			*list = append(*list, e)
		}
	}
	insert := func() int {
		id, err := st.InsertGraph(carryGraph(r))
		if err != nil {
			t.Fatal(err)
		}
		return id
	}
	remove := func(id int) {
		if err := st.DeleteGraph(id); err != nil {
			t.Fatal(err)
		}
	}
	removeAny := func() {
		live := st.LiveIDs()
		remove(live[r.Intn(len(live))])
	}
	for step := 0; step < 12; step++ {
		kind := step % 3
		switch kind {
		case 0: // random inserts and deletes
			for k := 1 + r.Intn(3); k > 0; k-- {
				if r.Intn(2) == 0 {
					insert()
				} else {
					removeAny()
				}
			}
		case 1: // an insert, then a delete of the same id
			remove(insert())
		case 2: // a gap the history cannot bridge
			for k := 0; k <= store.HistoryLen; k += 2 {
				insert()
				removeAny()
			}
		}
		before := cache.Stats()
		compareCarried(t, step, cached, plain)
		after := cache.Stats()
		if kind == 2 && after.Carried != before.Carried {
			t.Fatalf("step %d: %d entries carried across a gap longer than the history", step, after.Carried-before.Carried)
		}
	}
	if cache.Stats().Carried == 0 {
		t.Fatal("no entry was carried: the property was never exercised")
	}
}

// compareCarried repins every session and compares each cached session's
// NIF candidate lists and containment sets, read through the cache, with
// what its cache-off twin computes at the same epoch. A NIF list is compared
// only when every session holding its fragment agrees on the fragment's
// Φ and Υ: a cached list is computed from one session's Φ/Υ and carried
// with another's, and only when they agree is it one recomputation.
func compareCarried(t *testing.T, step int, cached, plain []*Engine) {
	t.Helper()
	ctx := context.Background()
	lists := map[string][]*spig.Vertex{} // code -> the NIF vertices with it
	for _, e := range append(slices.Clone(cached), plain...) {
		e.repin()
		for _, v := range nifVertices(e) {
			lists[v.Code] = append(lists[v.Code], v)
		}
	}
	comparable := func(code string) bool {
		vs := lists[code]
		for _, v := range vs[1:] {
			if !slices.Equal(v.Phi, vs[0].Phi) || !slices.Equal(v.Ups, vs[0].Ups) {
				return false
			}
		}
		return true
	}
	for i, ec := range cached {
		eu := plain[i]
		want := map[string]*spig.Vertex{}
		for _, v := range nifVertices(eu) {
			want[v.Code] = v
		}
		for _, v := range nifVertices(ec) {
			got, err := ec.exactSubCandidates(ctx, v)
			if err != nil {
				t.Fatal(err)
			}
			vu := want[v.Code]
			ref, err := eu.exactSubCandidates(ctx, vu)
			if err != nil {
				t.Fatal(err)
			}
			if comparable(v.Code) && !intset.Equal(got, ref) {
				t.Fatalf("step %d, epoch %d: NIF list of %s = %v, cache-off %v", step, ec.snap.Epoch(), v.Code, got, ref)
			}
			in, err := ec.exactContainment(ctx, v.Code, v.Frag, got)
			if err != nil {
				t.Fatal(err)
			}
			exact, err := eu.exactContainment(ctx, vu.Code, vu.Frag, eu.allIds())
			if err != nil {
				t.Fatal(err)
			}
			if !intset.Equal(in, exact) {
				t.Fatalf("step %d, epoch %d: containment set of %s = %v, cache-off %v", step, ec.snap.Epoch(), v.Code, in, exact)
			}
		}
	}
}

// nifVertices returns the session's NIF vertices, one per fragment class.
func nifVertices(e *Engine) []*spig.Vertex {
	var out []*spig.Vertex
	for k := 1; k <= e.q.Size(); k++ {
		for _, v := range e.spigs.LevelVertices(k) {
			if !v.Kind.Indexed() {
				out = append(out, v)
			}
		}
	}
	return out
}

// carryGraph draws a small random connected molecule over the fixture's
// labels, so inserts join some fragments' lists and miss others. The store
// assigns its id.
func carryGraph(r *rand.Rand) *graph.Graph {
	labels := []string{"C", "C", "C", "N", "O"}
	g := graph.New(0)
	n := 3 + r.Intn(5)
	for v := 0; v < n; v++ {
		g.AddNode(labels[r.Intn(len(labels))])
	}
	for v := 1; v < n; v++ {
		g.MustAddEdge(v, r.Intn(v))
	}
	return g
}
