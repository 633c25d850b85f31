package spig

import (
	"math/rand"
	"testing"
	"testing/quick"

	"prague/internal/graph"
	"prague/internal/query"
)

// TestQuickSpigInvariants drives random query shapes and formulation orders
// through SPIG construction — half of them ring-rich, with at least three
// independent cycles — and checks the structural invariants of §V:
//   - the SPIG set covers exactly the connected subgraph classes of q per level;
//   - every realization lives in the SPIG of its largest edge label;
//   - N(k) ≤ C(n, k) (Lemma 1);
//   - every vertex's code is its own fragment's canonical code.
func TestQuickSpigInvariants(t *testing.T) {
	idx, _ := buildIndexes(t, 97, 15, 0.3)

	f := func(seed int64) bool {
		r := rand.New(rand.NewSource(seed))
		labels := []string{"C", "N", "O"}
		// Random connected query, 3..6 edges, drawn in random valid order;
		// a cyclic one grows to 4..6 nodes, then closes rings until it has
		// at least 3 cycles.
		cyclic, ringNodes := r.Intn(2) == 0, 4+r.Intn(3)
		q := query.New()
		nodes := []int{q.AddNode(labels[r.Intn(len(labels))]), q.AddNode(labels[r.Intn(len(labels))])}
		S := NewSet(idx)
		first, err := q.AddEdge(nodes[0], nodes[1])
		if err != nil {
			return false
		}
		if _, err := S.Construct(q, first); err != nil {
			return false
		}
		target := 3 + r.Intn(4)
		cycles := func() int { return q.Size() - len(nodes) + 1 }
		for q.Size() < target || (cyclic && cycles() < 3) {
			var u int
			st := q.Steps()
			qe, _ := q.Edge(st[r.Intn(len(st))])
			if r.Intn(2) == 0 {
				u = qe.A
			} else {
				u = qe.B
			}
			var v int
			if r.Intn(3) == 0 || (cyclic && len(nodes) >= ringNodes) {
				v = nodes[r.Intn(len(nodes))]
			} else {
				v = q.AddNode(labels[r.Intn(len(labels))])
				nodes = append(nodes, v)
			}
			step, err := q.AddEdge(u, v)
			if err != nil {
				continue
			}
			if _, err := S.Construct(q, step); err != nil {
				return false
			}
		}

		qg, _ := q.Graph()
		subs := graph.ConnectedEdgeSubgraphs(qg)
		n := qg.Size()
		binom := func(n, k int) int {
			res := 1
			for i := 0; i < k; i++ {
				res = res * (n - i) / (i + 1)
			}
			return res
		}
		for k := 1; k <= n; k++ {
			classes := map[string]bool{}
			for _, v := range S.LevelVertices(k) {
				classes[v.Code] = true
			}
			if len(classes) != len(subs[k]) {
				return false
			}
			for _, sg := range subs[k] {
				if !classes[graph.CanonicalCode(sg)] {
					return false
				}
			}
			if S.VerticesAtLevel(k) > binom(n, k) {
				return false
			}
		}
		for _, l := range S.Labels() {
			s := S.Spig(l)
			for k := 1; k <= s.MaxLevel(); k++ {
				for _, v := range s.Level(k) {
					if v.Code != graph.CanonicalCode(v.Frag) {
						return false
					}
				}
			}
		}
		// Max-label partition: every realization's largest step equals its
		// SPIG's label.
		for _, l := range S.Labels() {
			s := S.Spig(l)
			for k := 1; k <= s.MaxLevel(); k++ {
				for _, v := range s.Level(k) {
					for _, m := range v.Reps {
						if rep := S.Steps(m); rep[len(rep)-1] != l {
							return false
						}
					}
				}
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 40}); err != nil {
		t.Error(err)
	}
}
