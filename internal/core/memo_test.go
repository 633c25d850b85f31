package core

import (
	"fmt"
	"math/rand"
	"slices"
	"testing"

	"prague/internal/candcache"
	"prague/internal/store"
)

// TestModifyKeepsCandidatesExact: a modification keeps the memoized lists of
// every fragment class. After every DeleteEdge, DeleteEdges and RelabelNode
// of seeded random sessions — monolithic, 4-shard and with a candidate cache,
// with graph inserts and deletes between actions — the outcome, Rq and every
// similarity level's Rfree and Rver equal those of a refresh of the same
// engine with the memo cleared. (Two NIF vertices of one code built in
// different epochs may inherit different Φ/Υ, and the class memo then serves
// whichever was resolved first: a different sound superset than the
// memo-cleared refresh may pick. No script here has reached that case.)
func TestModifyKeepsCandidatesExact(t *testing.T) {
	fx := chooserFixture(t)
	for seed := int64(0); seed < 16; seed++ {
		for layout := range 3 {
			checkModifyKeepsCandidates(t, fx, seed, layout)
		}
	}
}

// FuzzModifyKeepsCandidates is TestModifyKeepsCandidatesExact over fuzzed
// scripts.
func FuzzModifyKeepsCandidates(f *testing.F) {
	for s := int64(0); s < 6; s++ {
		f.Add(s, uint8(s))
	}
	f.Fuzz(func(t *testing.T, seed int64, layout uint8) {
		checkModifyKeepsCandidates(t, chooserFixture(t), seed, int(layout%3))
	})
}

// candState is the candidate state a modification leaves behind.
type candState struct {
	out       StepOutcome
	rq        []int
	free, ver [][]int
}

func candStateOf(e *Engine, out StepOutcome) candState {
	out.SpigTime, out.EvalTime = 0, 0
	free, ver := SimilaritySets(e)
	return candState{out: out, rq: e.Rq(), free: free, ver: ver}
}

func (a candState) equal(b candState) bool {
	return a.out == b.out && slices.Equal(a.rq, b.rq) &&
		slices.EqualFunc(a.free, b.free, slices.Equal) && slices.EqualFunc(a.ver, b.ver, slices.Equal)
}

// checkModifyKeepsCandidates runs one seeded formulate/modify script on the
// given layout (0 monolithic, 1 four shards, 2 candidate cache) and compares
// every modification's candidate state with a memo-cleared refresh. Between
// actions the script may also insert or delete a data graph, which advances
// the epoch under the session.
func checkModifyKeepsCandidates(t *testing.T, fx *fixture, seed int64, layout int) {
	t.Helper()
	var (
		e   *Engine
		err error
	)
	switch layout {
	case 1:
		var st store.Store
		if st, err = store.NewSharded(fx.db, fx.idx, 4); err == nil {
			e, err = NewWithStore(st, 2)
		}
	default:
		if e, err = New(fx.db, fx.idx, 2); err == nil && layout == 2 {
			e.SetCandidateCache(candcache.New(1<<20, nil))
		}
	}
	if err != nil {
		t.Fatal(err)
	}
	r := rand.New(rand.NewSource(seed))
	labels := []string{"C", "C", "N", "O", "S"}
	nodes := []int{e.AddNode(labels[r.Intn(len(labels))])}
	prompted := func(out StepOutcome) {
		if out.NeedsChoice && r.Intn(2) == 0 {
			e.ChooseSimilarity()
		}
	}
	check := func(what string, out StepOutcome, err error) {
		t.Helper()
		if err != nil {
			t.Fatalf("seed %d layout %d: %s: %v", seed, layout, what, err)
		}
		kept := candStateOf(e, out)
		fresh, err := RefreshWithoutMemo(e)
		if err != nil {
			t.Fatalf("seed %d layout %d: %s: memo-cleared refresh: %v", seed, layout, what, err)
		}
		if want := candStateOf(e, fresh); !kept.equal(want) {
			t.Fatalf("seed %d layout %d: %s: kept memo gives %+v, memo-cleared refresh %+v",
				seed, layout, what, kept, want)
		}
		prompted(out)
	}
	deletable := func() []int {
		var ds []int
		for _, s := range e.Query().Steps() {
			if e.Query().CanDelete(s) {
				ds = append(ds, s)
			}
		}
		return ds
	}
	for op := 0; op < 14; op++ {
		size := e.Query().Size()
		switch k := r.Intn(11); {
		case size < 2 || (k < 5 && size < 6): // draw an edge
			u := nodes[r.Intn(len(nodes))]
			if size > 0 {
				qe, _ := e.Query().Edge(e.Query().Steps()[r.Intn(size)])
				u = qe.A
			}
			var v int
			if r.Intn(4) == 0 && len(nodes) > 2 {
				v = nodes[r.Intn(len(nodes))]
			} else {
				v = e.AddNode(labels[r.Intn(len(labels))])
				nodes = append(nodes, v)
			}
			out, err := e.AddEdge(u, v)
			if err != nil {
				continue // duplicate or self-loop
			}
			prompted(out)
		case k < 6:
			ds := deletable()
			if len(ds) == 0 {
				continue
			}
			s := ds[r.Intn(len(ds))]
			out, err := e.DeleteEdge(s)
			check(fmt.Sprintf("delete e%d", s), out, err)
		case k < 7: // the suggestion's batch memoizes what its deletion needs
			sg, err := e.SuggestDeletion()
			if err != nil {
				continue
			}
			out, err := e.DeleteEdge(sg.Step)
			check(fmt.Sprintf("delete suggested e%d", sg.Step), out, err)
		case k < 8:
			st := e.Query().Steps()
			if len(st) < 4 {
				continue
			}
			a, b := st[r.Intn(len(st))], st[r.Intn(len(st))]
			if a == b {
				continue
			}
			out, err := e.DeleteEdges([]int{a, b})
			if err != nil {
				continue // would disconnect the query
			}
			check(fmt.Sprintf("delete e%d, e%d", a, b), out, err)
		case k < 9:
			qe, _ := e.Query().Edge(e.Query().Steps()[r.Intn(size)])
			out, err := e.RelabelNode(qe.B, labels[r.Intn(len(labels))])
			check("relabel", out, err)
		case k < 10:
			st := e.Store()
			if r.Intn(2) == 0 {
				_, err = st.InsertGraph(carryGraph(r))
			} else {
				live := st.LiveIDs()
				err = st.DeleteGraph(live[r.Intn(len(live))])
			}
			if err != nil {
				t.Fatalf("seed %d layout %d: mutate: %v", seed, layout, err)
			}
		default:
			e.ChooseSimilarity()
		}
	}
}
