package spig

import (
	"math/rand"
	"sync"
	"testing"

	"prague/internal/graph"
	"prague/internal/index"
	"prague/internal/mining"
	"prague/internal/query"
)

// The fuzz fixture is built once without a testing.TB (fuzz workers share
// it): a small random molecule database and its mined indexes.
var (
	fuzzOnce sync.Once
	fuzzIdx  *index.Set
)

func fuzzIndexes() *index.Set {
	fuzzOnce.Do(func() {
		r := rand.New(rand.NewSource(7))
		labels := []string{"C", "C", "C", "N", "O", "S"}
		var db []*graph.Graph
		for i := 0; i < 30; i++ {
			nodes := 4 + r.Intn(5)
			g := graph.New(i)
			for v := 0; v < nodes; v++ {
				g.AddNode(labels[r.Intn(len(labels))])
			}
			for v := 1; v < nodes; v++ {
				g.MustAddEdge(v, r.Intn(v))
			}
			db = append(db, g)
		}
		res, err := mining.Mine(db, mining.Options{MinSupportRatio: 0.3, MaxSize: 8, IncludeZeroSupportPairs: true})
		if err != nil {
			panic(err)
		}
		fuzzIdx, err = index.Build(res, 0.3, 3)
		if err != nil {
			panic(err)
		}
	})
	return fuzzIdx
}

// FuzzSPIGAddDelete checks the modification invariant of Section 6: drawing
// one more edge and immediately deleting it must restore the SPIG set
// exactly (the newest step has the largest id, so only its own SPIG may
// reference it — add-then-delete is a perfect undo). After every action each
// vertex's code must be its fragment's canonical code and each level's class
// set that of a fresh rebuild (checkAgainstRebuild); the next edge drawn
// reuses the deleted edge's slot. The byte stream encodes
// the base query formulation and the extra edge.
func FuzzSPIGAddDelete(f *testing.F) {
	// Committed seeds: a path extended by a leaf, a triangle closure, and a
	// longer chain with a cycle edge.
	f.Add([]byte{3, 0, 1, 2, 0, 1, 0, 1, 2, 0}, byte(0), byte(2), byte(0))
	f.Add([]byte{3, 0, 0, 1, 0, 1, 0, 1, 2, 0}, byte(2), byte(0), byte(1))
	f.Add([]byte{3, 0, 1, 2, 3, 1, 0, 1, 0, 1, 2, 0, 2, 3, 0, 3, 4, 0}, byte(1), byte(3), byte(2))

	labels := []string{"C", "N", "O", "S"}
	bonds := []string{"", "1", "2"}

	f.Fuzz(func(t *testing.T, script []byte, xa, xb, xbond byte) {
		idx := fuzzIndexes()
		if len(script) < 2 {
			t.Skip("script too short")
		}
		n := 2 + int(script[0])%5
		script = script[1:]
		q := query.New()
		for v := 0; v < n; v++ {
			var lb byte
			if len(script) > 0 {
				lb, script = script[0], script[1:]
			}
			q.AddNode(labels[int(lb)%len(labels)])
		}

		S := NewSet(idx)
		edges := 0
		for len(script) >= 3 && edges < 6 {
			u := int(script[0]) % n
			v := int(script[1]) % n
			bond := bonds[int(script[2])%len(bonds)]
			script = script[3:]
			step, err := q.AddLabeledEdge(u, v, bond)
			if err != nil {
				continue // self-loop, duplicate, or disconnected: not a query
			}
			if _, err := S.Construct(q, step); err != nil {
				t.Fatalf("construct step %d: %v", step, err)
			}
			checkAgainstRebuild(t, q, S)
			edges++
		}
		if edges == 0 {
			t.Skip("no valid base query")
		}

		before := S.Dump()

		step, err := q.AddLabeledEdge(int(xa)%n, int(xb)%n, bonds[int(xbond)%len(bonds)])
		if err != nil {
			t.Skip("extra edge invalid")
		}
		if _, err := S.Construct(q, step); err != nil {
			t.Fatalf("construct extra step %d: %v", step, err)
		}
		checkAgainstRebuild(t, q, S)
		if err := q.DeleteEdge(step); err != nil {
			t.Fatalf("deleting the newest edge must always be allowed: %v", err)
		}
		S.DeleteEdge(step)
		checkAgainstRebuild(t, q, S)

		if after := S.Dump(); after != before {
			t.Fatalf("SPIG set not restored by add-then-delete of step %d:\n--- before ---\n%s\n--- after ---\n%s", step, before, after)
		}
	})
}
