package difftest

import (
	"math"
	"math/rand"
	"testing"

	"prague/internal/query"
)

// TestScriptDrawsValidActions replays many seeded scripts against a mirror
// query: every drawn add is anchored in the fragment (any node while it is
// empty) and names existing or freshly numbered nodes, every delete is
// deletable on the mirror and never empties it, and across the seeds the
// scripts close rings and delete steps.
func TestScriptDrawsValidActions(t *testing.T) {
	for _, mix := range []Mix{plainSuite.mix, mutationSuite.mix} {
		rings, deletes := 0, 0
		for seed := int64(1); seed <= 200; seed++ {
			q := query.New()
			sc := NewScript(rand.New(rand.NewSource(seed)), mix)
			q.AddNode(sc.Node())
			q.AddNode(sc.Node())
			nodes := 2
			for k := 0; k < 40; k++ {
				switch op := sc.Next(q); op.Kind {
				case Add:
					if q.Size() > 0 && !anchored(q, op.U) {
						t.Fatalf("mix %+v seed %d: add (%d,%d) is not anchored in the fragment", mix, seed, op.U, op.V)
					}
					if op.U < 0 || op.U >= nodes {
						t.Fatalf("mix %+v seed %d: add from node %d of %d", mix, seed, op.U, nodes)
					}
					if op.Fresh != "" {
						if id := q.AddNode(op.Fresh); id != op.V {
							t.Fatalf("mix %+v seed %d: fresh node got id %d, script drew %d", mix, seed, id, op.V)
						}
						nodes++
					} else if op.V < 0 || op.V >= nodes {
						t.Fatalf("mix %+v seed %d: add to node %d of %d", mix, seed, op.V, nodes)
					}
					if _, err := q.AddLabeledEdge(op.U, op.V, op.Bond); err == nil && op.Fresh == "" {
						rings++
					}
				case Delete:
					if q.Size() < 2 || !q.CanDelete(op.Step) {
						t.Fatalf("mix %+v seed %d: delete of step %d, which the mirror (size %d) cannot delete", mix, seed, op.Step, q.Size())
					}
					if err := q.DeleteEdge(op.Step); err != nil {
						t.Fatal(err)
					}
					deletes++
				case Skip:
					if q.Size() >= 2 {
						t.Fatalf("mix %+v seed %d: skipped a delete with %d edges drawn", mix, seed, q.Size())
					}
				}
			}
		}
		if rings == 0 || deletes == 0 {
			t.Errorf("mix %+v: %d rings closed, %d steps deleted over 200 scripts", mix, rings, deletes)
		}
	}
}

// anchored reports whether node u is an endpoint of a drawn edge.
func anchored(q *query.Query, u int) bool {
	for _, s := range q.Steps() {
		if e, _ := q.Edge(s); e.A == u || e.B == u {
			return true
		}
	}
	return false
}

// TestScriptOpShares checks that each suite's weight table reproduces its op
// shares: against a fragment where every action is possible, the share of
// each kind is its weight over the total.
func TestScriptOpShares(t *testing.T) {
	q := query.New()
	for i := 0; i < 4; i++ {
		q.AddNode("C")
	}
	for i := 0; i < 3; i++ { // a path: both end edges are deletable
		if _, err := q.AddEdge(i, i+1); err != nil {
			t.Fatal(err)
		}
	}
	const draws = 20000
	for _, mix := range []Mix{plainSuite.mix, mutationSuite.mix} {
		sc := NewScript(rand.New(rand.NewSource(1)), mix)
		for i := 0; i < 4; i++ {
			sc.Node()
		}
		var got [Check + 1]int
		for i := 0; i < draws; i++ {
			got[sc.Next(q).Kind]++
		}
		total := float64(mix.Add + mix.Delete + mix.Burst + mix.Mutate + mix.Check)
		for kind, w := range map[Kind]int{Add: mix.Add, Delete: mix.Delete, Burst: mix.Burst, Mutate: mix.Mutate, Check: mix.Check} {
			if share, want := float64(got[kind])/draws, float64(w)/total; math.Abs(share-want) > 0.02 {
				t.Errorf("mix %+v: kind %d drawn at share %.3f, weight says %.3f", mix, kind, share, want)
			}
		}
		if got[Skip] != 0 {
			t.Errorf("mix %+v: %d skips against a deletable fragment", mix, got[Skip])
		}
	}
}
