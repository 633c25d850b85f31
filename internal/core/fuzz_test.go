package core

import (
	"math/rand"
	"testing"

	"prague/internal/graph"
	"prague/internal/workpool"
)

// TestRandomizedSessions drives the engine through random action sequences
// — add labeled/unlabeled edges, delete single edges, multi-delete, relabel
// nodes, drop patterns — choosing similarity search whenever prompted, and
// checks the final Run output against the brute-force oracle (Definition 3
// when the session degraded to similarity; exact containment otherwise).
// This is the whole-engine fuzz test: whatever path the session took, the
// answer must be right.
func TestRandomizedSessions(t *testing.T) {
	f := makeFixture(t, 51, 35, 0.25)
	labels := []string{"C", "C", "N", "O", "S"}
	bonds := []string{"", "", "1", "2"}
	pool := workpool.New(3)
	defer pool.Close()

	for trial := 0; trial < 25; trial++ {
		r := rand.New(rand.NewSource(int64(trial) + 1000))
		e, err := New(f.db, f.idx, 2)
		if err != nil {
			t.Fatal(err)
		}
		if trial%3 == 0 {
			e.SetPool(pool)
		}
		var nodes []int
		addNode := func() int {
			id := e.AddNode(labels[r.Intn(len(labels))])
			nodes = append(nodes, id)
			return id
		}
		addNode()
		addNode()

		steps := 6 + r.Intn(6)
		for k := 0; k < steps; k++ {
			switch op := r.Intn(10); {
			case op < 5 || e.Query().Size() == 0: // add an edge
				var u int
				if e.Query().Size() == 0 {
					u = nodes[r.Intn(len(nodes))]
				} else {
					// Anchor at a node already in the fragment.
					st := e.Query().Steps()
					qe, _ := e.Query().Edge(st[r.Intn(len(st))])
					if r.Intn(2) == 0 {
						u = qe.A
					} else {
						u = qe.B
					}
				}
				var v int
				if r.Intn(3) == 0 && len(nodes) > 2 {
					v = nodes[r.Intn(len(nodes))]
				} else {
					v = addNode()
				}
				out, err := e.AddLabeledEdge(u, v, bonds[r.Intn(len(bonds))])
				if err != nil {
					continue // duplicate/self-loop/disconnected: fine
				}
				if out.NeedsChoice {
					e.ChooseSimilarity()
				}
			case op < 7: // delete one random deletable edge
				if e.Query().Size() < 2 {
					continue
				}
				var deletable []int
				for _, s := range e.Query().Steps() {
					if e.Query().CanDelete(s) {
						deletable = append(deletable, s)
					}
				}
				if len(deletable) == 0 {
					continue
				}
				out, err := e.DeleteEdge(deletable[r.Intn(len(deletable))])
				if err != nil {
					t.Fatalf("trial %d: deleting a deletable edge failed: %v", trial, err)
				}
				if out.NeedsChoice {
					e.ChooseSimilarity()
				}
			case op < 8: // relabel a random node
				if len(nodes) == 0 {
					continue
				}
				out, err := e.RelabelNode(nodes[r.Intn(len(nodes))], labels[r.Intn(len(labels))])
				if err != nil {
					t.Fatalf("trial %d: relabel failed: %v", trial, err)
				}
				if out.NeedsChoice {
					e.ChooseSimilarity()
				}
			case op < 9: // suggestion (may fail on tiny queries; just exercise)
				if _, err := e.SuggestDeletion(); err != nil {
					continue
				}
			default: // multi-delete two edges if possible
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
					continue // would disconnect: fine
				}
				if out.NeedsChoice {
					e.ChooseSimilarity()
				}
			}
		}
		if e.Query().Size() == 0 {
			continue
		}
		if e.AwaitingChoice() {
			e.ChooseSimilarity()
		}

		results, err := e.Run()
		if err != nil {
			t.Fatalf("trial %d: run: %v", trial, err)
		}
		qg, _ := e.Query().Graph()
		got := map[int]int{}
		for _, res := range results {
			got[res.GraphID] = res.Distance
		}

		if e.SimilarityMode() {
			for _, g := range f.db {
				d := graph.SubgraphDistance(qg, g)
				if d <= 2 {
					if gd, ok := got[g.ID]; !ok || gd != d {
						t.Fatalf("trial %d: graph %d dist %d, engine says %v (ok=%v)\n q=%v",
							trial, g.ID, d, gd, ok, qg)
					}
				} else if _, ok := got[g.ID]; ok {
					t.Fatalf("trial %d: graph %d beyond σ included", trial, g.ID)
				}
			}
		} else {
			exact := map[int]bool{}
			for _, g := range f.db {
				if graph.SubgraphIsomorphic(qg, g) {
					exact[g.ID] = true
				}
			}
			if len(exact) > 0 {
				if len(got) != len(exact) {
					t.Fatalf("trial %d: %d exact results, oracle %d", trial, len(got), len(exact))
				}
				for id := range got {
					if !exact[id] {
						t.Fatalf("trial %d: false positive %d", trial, id)
					}
				}
			} else {
				// Exact mode with no exact matches: Run falls back to
				// similarity (Algorithm 1 lines 19-21).
				for _, g := range f.db {
					d := graph.SubgraphDistance(qg, g)
					if d <= 2 && (got[g.ID] != d) {
						t.Fatalf("trial %d: fallback missed graph %d at dist %d", trial, g.ID, d)
					}
				}
			}
		}
	}
}
