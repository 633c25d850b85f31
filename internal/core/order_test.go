package core

import (
	"context"
	"fmt"
	"maps"
	"math/rand"
	"slices"
	"testing"

	"prague/internal/store"
)

// FuzzFormulationOrder is the corollary of Lemma 2: the candidates do not
// depend on the order the user draws the edges in. One seeded edge set is
// formulated in two connected orders — as generated, and a random connected
// order drawn from the second seed — by two sessions over one in-process
// store, monolithic or 4-shard. After the last step, and again after a graph
// insert and a graph delete, both sessions must agree on the memoized
// Algorithm 3 list of every fragment class of the query, and, when neither
// session met the empty-Rq prompt, on the Status and on Rq.
//
// The prompt is left out because it can fire in one order only: the two
// orders draw different intermediate fragments, and Rq is not monotone
// under edge addition. A NIF's Φ holds its frequent SPIG parents only, so a
// fragment whose parents are all NIFs can have a looser list than one of its
// subgraphs; when that subgraph is an intermediate query of one order, that
// order meets an empty Rq and turns to similarity search, and the other
// does not.
func FuzzFormulationOrder(f *testing.F) {
	for s := int64(0); s < 8; s++ {
		f.Add(s, 100+s, uint8(s))
	}
	f.Fuzz(func(t *testing.T, seed, order int64, layout uint8) {
		fx := chooserFixture(t)
		var st store.Store
		var err error
		if layout%2 == 0 {
			st, err = store.NewSharded(fx.db, fx.idx, 1)
		} else {
			st, err = store.NewSharded(fx.db, fx.idx, 4)
		}
		if err != nil {
			t.Fatal(err)
		}
		r := rand.New(rand.NewSource(seed))
		spec := randomQuerySpec(r, []string{"C", "C", "N", "O", "S"}, 3+r.Intn(5))
		other := spec
		other.edges = connectedOrder(rand.New(rand.NewSource(order)), spec.edges)

		var es [2]*Engine
		var outs [2]StepOutcome
		for i, sp := range []querySpec{spec, other} {
			if es[i], err = NewWithStore(st, 2); err != nil {
				t.Fatal(err)
			}
			o := formulate(t, es[i], sp)
			outs[i] = o[len(o)-1]
		}
		prompted := es[0].SimilarityMode() || es[1].SimilarityMode()
		compareOrders(t, "after the last step", es, outs, prompted)

		id, err := st.InsertGraph(fx.db[r.Intn(len(fx.db))].Clone())
		if err != nil {
			t.Fatal(err)
		}
		live := st.LiveIDs()
		if err := st.DeleteGraph(live[r.Intn(len(live)-1)]); err != nil {
			t.Fatal(err)
		}
		for i, e := range es {
			e.repin()
			if outs[i], err = e.refresh(context.Background()); err != nil {
				t.Fatal(err)
			}
		}
		compareOrders(t, fmt.Sprintf("after inserting graph %d and deleting one", id), es, outs, prompted)
	})
}

// connectedOrder returns a random order of edges in which every edge after
// the first touches a node of the edges before it, as drawing on a canvas
// requires.
func connectedOrder(r *rand.Rand, edges [][2]int) [][2]int {
	rest := slices.Clone(edges)
	r.Shuffle(len(rest), func(i, j int) { rest[i], rest[j] = rest[j], rest[i] })
	out := [][2]int{rest[0]}
	seen := map[int]bool{rest[0][0]: true, rest[0][1]: true}
	rest = rest[1:]
	for len(rest) > 0 {
		i := slices.IndexFunc(rest, func(e [2]int) bool { return seen[e[0]] || seen[e[1]] })
		out = append(out, rest[i])
		seen[rest[i][0]], seen[rest[i][1]] = true, true
		rest = slices.Delete(rest, i, i+1)
	}
	return out
}

// compareOrders requires the two sessions to agree, once every fragment
// class of the query is resolved, on the class memo, and unless a session
// was prompted, on the outcome's Status and on Rq.
func compareOrders(t *testing.T, when string, es [2]*Engine, outs [2]StepOutcome, prompted bool) {
	t.Helper()
	if !prompted && outs[0].Status != outs[1].Status {
		t.Fatalf("%s: status %v drawn one way, %v the other", when, outs[0].Status, outs[1].Status)
	}
	if a, b := es[0].Rq(), es[1].Rq(); !prompted && !slices.Equal(a, b) {
		t.Fatalf("%s: Rq %v drawn one way, %v the other", when, a, b)
	}
	for _, e := range es {
		for k := 1; k <= e.q.Size(); k++ {
			vs := e.spigs.LevelVertices(k)
			lists, errs := make([][]int, len(vs)), make([]error, len(vs))
			e.exactSubCandidatesAll(context.Background(), vs, 0, lists, errs)
			for i, err := range errs {
				if err != nil {
					t.Fatalf("%s: level %d vertex %s: %v", when, k, vs[i].Code, err)
				}
			}
		}
	}
	for i := range es[0].candMemo {
		a, b := es[0].candMemo[i], es[1].candMemo[i]
		if !maps.EqualFunc(a, b, slices.Equal[[]int]) {
			for code, ids := range a {
				if other, ok := b[code]; !ok || !slices.Equal(ids, other) {
					t.Fatalf("%s: %s class %s: %v drawn one way, %v the other", when, memoKind(i), code, ids, other)
				}
			}
			t.Fatalf("%s: %s classes: %d drawn one way, %d the other", when, memoKind(i), len(a), len(b))
		}
	}
}

// memoKind names a classMemo slot.
func memoKind(slot int) string {
	if slot == 0 {
		return "NIF"
	}
	return "indexed"
}
