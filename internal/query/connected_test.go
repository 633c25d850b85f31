package query

import (
	"math/rand"
	"testing"

	"prague/internal/graph"
	"prague/internal/raceflag"
)

// ringLadder draws a ladder of fused 4-cycles with a pendant chain: a query
// with cycles, bridges and many disconnected step subsets.
func ringLadder(t *testing.T) *Query {
	t.Helper()
	q := New()
	for i := 0; i < 10; i++ {
		q.AddNode([]string{"C", "N", "O"}[i%3])
	}
	for _, e := range [][2]int{{0, 1}, {1, 2}, {2, 3}, {3, 0}, {2, 4}, {4, 5}, {5, 3}, {4, 6}, {6, 7}, {7, 5}, {7, 8}, {8, 9}} {
		if _, err := q.AddEdge(e[0], e[1]); err != nil {
			t.Fatal(err)
		}
	}
	return q
}

// materializedConnected is the reference StepsConnected replaces: build the
// edge-induced graph and search it.
func materializedConnected(q *Query, steps []int) bool {
	g := graph.New(-1)
	dense := map[int]int{}
	node := func(id int) int {
		if v, ok := dense[id]; ok {
			return v
		}
		dense[id] = g.AddNode(q.NodeLabel(id))
		return dense[id]
	}
	for _, s := range steps {
		e, ok := q.Edge(s)
		if !ok {
			return false
		}
		if err := g.AddEdge(node(e.A), node(e.B)); err != nil {
			return false
		}
	}
	return g.Connected()
}

func TestStepsConnectedMatchesMaterialized(t *testing.T) {
	q := ringLadder(t)
	all := q.Steps()
	r := rand.New(rand.NewSource(11))
	for trial := 0; trial < 2000; trial++ {
		var steps []int
		for _, s := range all {
			if r.Intn(3) == 0 {
				steps = append(steps, s)
			}
		}
		if r.Intn(20) == 0 {
			steps = append(steps, 99) // an unknown step
		}
		r.Shuffle(len(steps), func(i, j int) { steps[i], steps[j] = steps[j], steps[i] })
		want := len(steps) > 0 && materializedConnected(q, steps)
		if got := q.StepsConnected(steps); got != want {
			t.Fatalf("StepsConnected(%v) = %v, want %v", steps, got, want)
		}
		if _, got := q.FragmentOf(steps); got != want {
			t.Fatalf("FragmentOf(%v) connected = %v, want %v", steps, got, want)
		}
	}
	if q.StepsConnected(nil) {
		t.Error("the empty step set reported connected")
	}
}

// StepsConnected runs once per dropped subset in every SPIG vertex's
// classification: it must not allocate.
func TestStepsConnectedAllocBudget(t *testing.T) {
	if raceflag.Enabled {
		t.Skip("allocation budgets are not meaningful under -race")
	}
	q := ringLadder(t)
	connected := q.Steps()
	split := []int{1, 2, 9, 10, 11}
	if !q.StepsConnected(connected) || q.StepsConnected(split) {
		t.Fatal("fixture subsets have the wrong connectivity")
	}
	if n := testing.AllocsPerRun(200, func() {
		q.StepsConnected(connected)
		q.StepsConnected(split)
	}); n != 0 {
		t.Errorf("StepsConnected allocates %.1f/op, budget 0", n)
	}
}
