package spig

import (
	"fmt"
	"math/rand"
	"strings"
	"testing"

	"prague/internal/graph"
	"prague/internal/index"
	"prague/internal/intset"
	"prague/internal/mining"
	"prague/internal/query"
)

// buildIndexes mines a small random molecule-ish database and builds the
// action-aware indexes; shared fixture for SPIG tests.
func buildIndexes(t *testing.T, seed int64, n int, alpha float64) (*index.Set, []*graph.Graph) {
	t.Helper()
	r := rand.New(rand.NewSource(seed))
	labels := []string{"C", "C", "C", "N", "O", "S"} // C-heavy like AIDS
	var db []*graph.Graph
	for i := 0; i < n; i++ {
		nodes := 4 + r.Intn(6)
		g := graph.New(i)
		for v := 0; v < nodes; v++ {
			g.AddNode(labels[r.Intn(len(labels))])
		}
		for v := 1; v < nodes; v++ {
			g.MustAddEdge(v, r.Intn(v))
		}
		for k := 0; k < r.Intn(3); k++ {
			u, v := r.Intn(nodes), r.Intn(nodes)
			if u != v && !g.HasEdge(u, v) {
				g.MustAddEdge(u, v)
			}
		}
		db = append(db, g)
	}
	res, err := mining.Mine(db, mining.Options{MinSupportRatio: alpha, MaxSize: 8, IncludeZeroSupportPairs: true})
	if err != nil {
		t.Fatal(err)
	}
	set, err := index.Build(res, alpha, 3)
	if err != nil {
		t.Fatal(err)
	}
	return set, db
}

// formulate draws the given labeled edges one at a time, building a SPIG per
// step, and returns the query and SPIG set.
type edgeSpec struct{ a, b int } // node ids in the order they were added

func formulate(t *testing.T, idx Classifier, nodeLabels []string, edges []edgeSpec) (*query.Query, *Set) {
	t.Helper()
	q := query.New()
	for _, l := range nodeLabels {
		q.AddNode(l)
	}
	S := NewSet(idx)
	for _, e := range edges {
		step, err := q.AddEdge(e.a, e.b)
		if err != nil {
			t.Fatal(err)
		}
		if _, err := S.Construct(q, step); err != nil {
			t.Fatal(err)
		}
	}
	return q, S
}

func TestConstructValidation(t *testing.T) {
	idx, _ := buildIndexes(t, 1, 15, 0.3)
	q := query.New()
	a, b := q.AddNode("C"), q.AddNode("C")
	S := NewSet(idx)
	if _, err := S.Construct(q, 1); err == nil {
		t.Error("constructing a SPIG for a missing edge succeeded")
	}
	step, _ := q.AddEdge(a, b)
	if _, err := S.Construct(q, step); err != nil {
		t.Fatal(err)
	}
	if _, err := S.Construct(q, step); err == nil {
		t.Error("duplicate SPIG construction succeeded")
	}
}

func TestSpigShape(t *testing.T) {
	idx, _ := buildIndexes(t, 2, 15, 0.3)
	// Triangle C-C-C: three edges; after step 3 the SPIG S3 has levels
	// 1..3 with a single source and a single target (spindle shape).
	q, S := formulate(t, idx, []string{"C", "C", "C"},
		[]edgeSpec{{0, 1}, {1, 2}, {0, 2}})
	s3 := S.Spig(3)
	if s3 == nil {
		t.Fatal("missing SPIG for e3")
	}
	if s3.MaxLevel() != 3 {
		t.Fatalf("S3 max level = %d, want 3", s3.MaxLevel())
	}
	if src := s3.Source(); src == nil || src.Level != 1 {
		t.Error("S3 source vertex wrong")
	}
	if tgt := S.Target(q); tgt == nil || tgt.Level != 3 {
		t.Error("target vertex wrong")
	}
	// Level 2 of S3: subsets {1,3} and {2,3} are both C-C-C paths — one
	// isomorphism class with two realizations.
	lv2 := s3.Level(2)
	if len(lv2) != 1 {
		t.Fatalf("S3 level 2 has %d classes, want 1", len(lv2))
	}
	if len(lv2[0].Reps) != 2 {
		t.Errorf("S3 level-2 class has %d realizations, want 2", len(lv2[0].Reps))
	}
}

// currentSubgraphClasses enumerates the connected subgraphs of the current
// query by brute force, returning canonical-code sets per level.
func currentSubgraphClasses(q *query.Query) []map[string]bool {
	g, _ := q.Graph()
	subs := graph.ConnectedEdgeSubgraphs(g)
	out := make([]map[string]bool, g.Size()+1)
	for k := 1; k <= g.Size(); k++ {
		out[k] = map[string]bool{}
		for _, sg := range subs[k] {
			out[k][graph.CanonicalCode(sg)] = true
		}
	}
	return out
}

func TestSetCoversAllConnectedSubgraphs(t *testing.T) {
	idx, _ := buildIndexes(t, 3, 15, 0.3)
	// A 5-edge query with a cycle.
	q, S := formulate(t, idx, []string{"C", "C", "C", "N", "O"},
		[]edgeSpec{{0, 1}, {1, 2}, {0, 2}, {2, 3}, {3, 4}})
	want := currentSubgraphClasses(q)
	for k := 1; k <= q.Size(); k++ {
		got := map[string]bool{}
		for _, v := range S.LevelVertices(k) {
			got[v.Code] = true
		}
		if len(got) != len(want[k]) {
			t.Fatalf("level %d: SPIG set has %d classes, brute force %d", k, len(got), len(want[k]))
		}
		for code := range want[k] {
			if !got[code] {
				t.Fatalf("level %d: missing class %s", k, code)
			}
		}
	}
}

func TestLemma1VertexBound(t *testing.T) {
	idx, _ := buildIndexes(t, 4, 15, 0.3)
	q, S := formulate(t, idx, []string{"C", "C", "C", "N", "O", "C"},
		[]edgeSpec{{0, 1}, {1, 2}, {0, 2}, {2, 3}, {3, 4}, {4, 5}})
	n := q.Size()
	binom := func(n, k int) int {
		if k < 0 || k > n {
			return 0
		}
		r := 1
		for i := 0; i < k; i++ {
			r = r * (n - i) / (i + 1)
		}
		return r
	}
	for k := 1; k <= n; k++ {
		if got := S.VerticesAtLevel(k); got > binom(n, k) {
			t.Errorf("level %d: N(k)=%d exceeds C(%d,%d)=%d", k, got, n, k, binom(n, k))
		}
	}
}

func TestEachSubgraphInExactlyOneSpig(t *testing.T) {
	idx, _ := buildIndexes(t, 5, 15, 0.3)
	_, S := formulate(t, idx, []string{"C", "C", "N", "C"},
		[]edgeSpec{{0, 1}, {1, 2}, {2, 3}, {0, 3}})
	// Every realization (edge-step set) must appear exactly once across S.
	seen := map[string]int{}
	for _, l := range S.Labels() {
		s := S.Spig(l)
		for k := 1; k <= s.MaxLevel(); k++ {
			for _, v := range s.Level(k) {
				for _, m := range v.Reps {
					rep := S.Steps(m)
					seen[fmt.Sprint(rep)]++
					// Realization must live in the SPIG of its max label.
					if rep[len(rep)-1] != l {
						t.Errorf("realization %v stored in S%d", rep, l)
					}
				}
			}
		}
	}
	for key, count := range seen {
		if count != 1 {
			t.Errorf("realization %s appears %d times", key, count)
		}
	}
}

func TestFragmentListsMatchDefinition(t *testing.T) {
	idx, db := buildIndexes(t, 6, 25, 0.25)
	_ = db
	q, S := formulate(t, idx, []string{"C", "C", "C", "N", "O"},
		[]edgeSpec{{0, 1}, {1, 2}, {2, 3}, {3, 4}, {0, 2}})
	for k := 1; k <= q.Size(); k++ {
		for _, v := range S.LevelVertices(k) {
			kind, id := idx.Lookup(v.Code)
			if kind != v.Kind {
				t.Fatalf("vertex %s kind %v, index says %v", v.Code, v.Kind, kind)
			}
			switch kind {
			case index.KindFrequent:
				if v.FreqID != id || v.DifID != -1 || len(v.Phi) != 0 || len(v.Ups) != 0 {
					t.Errorf("frequent vertex %s has wrong fragment list", v.Code)
				}
			case index.KindDIF:
				if v.DifID != id || v.FreqID != -1 || len(v.Phi) != 0 || len(v.Ups) != 0 {
					t.Errorf("DIF vertex %s has wrong fragment list", v.Code)
				}
			default:
				// Definition 4 condition 3: Φ = a2fIds of the largest
				// frequent proper subgraphs; Υ = a2iIds of all DIF
				// subgraphs. Check against brute force on the fragment.
				wantPhi := map[int]bool{}
				for _, e := range v.Frag.Edges() {
					sub, err := v.Frag.DeleteEdge(e.U, e.V)
					if err != nil {
						t.Fatal(err)
					}
					if !sub.Connected() {
						continue
					}
					if kk, sid := idx.Lookup(graph.CanonicalCode(sub)); kk == index.KindFrequent {
						wantPhi[sid] = true
					}
				}
				if len(wantPhi) != len(v.Phi) {
					t.Fatalf("vertex %s: Φ=%v, brute force wants %v", v.Code, v.Phi, wantPhi)
				}
				for _, id := range v.Phi {
					if !wantPhi[id] {
						t.Fatalf("vertex %s: Φ contains unexpected id %d", v.Code, id)
					}
				}
				wantUps := map[int]bool{}
				subs := graph.ConnectedEdgeSubgraphs(v.Frag)
				for kk := 1; kk < v.Frag.Size(); kk++ {
					for _, sg := range subs[kk] {
						if kind2, sid := idx.Lookup(graph.CanonicalCode(sg)); kind2 == index.KindDIF {
							wantUps[sid] = true
						}
					}
				}
				if len(wantUps) != len(v.Ups) {
					t.Fatalf("vertex %s: Υ=%v, brute force wants %v", v.Code, v.Ups, wantUps)
				}
				for _, id := range v.Ups {
					if !wantUps[id] {
						t.Fatalf("vertex %s: Υ contains unexpected id %d", v.Code, id)
					}
				}
				// A NIF always contains a DIF (paper §III), so Υ must be
				// non-empty for vertices with no indexed subgraph info at
				// all... at minimum Φ ∪ Υ must be non-empty.
				if len(v.Phi) == 0 && len(v.Ups) == 0 {
					t.Errorf("NIF vertex %s has empty fragment list", v.Code)
				}
			}
		}
	}
}

func TestSequenceInvariance(t *testing.T) {
	// Different formulation sequences of the same query yield the same
	// N(k) (paper §V-B) and the same class sets per level.
	idx, _ := buildIndexes(t, 7, 20, 0.3)
	seqA := []edgeSpec{{0, 1}, {1, 2}, {2, 3}, {0, 2}, {3, 4}}
	seqB := []edgeSpec{{3, 4}, {2, 3}, {1, 2}, {0, 2}, {0, 1}}
	labels := []string{"C", "C", "C", "N", "O"}
	qa, SA := formulate(t, idx, labels, seqA)
	qb, SB := formulate(t, idx, labels, seqB)
	ga, _ := qa.Graph()
	gb, _ := qb.Graph()
	if graph.CanonicalCode(ga) != graph.CanonicalCode(gb) {
		t.Fatal("test bug: sequences formulate different queries")
	}
	for k := 1; k <= qa.Size(); k++ {
		if SA.VerticesAtLevel(k) != SB.VerticesAtLevel(k) {
			t.Errorf("level %d: N(k) differs across sequences: %d vs %d",
				k, SA.VerticesAtLevel(k), SB.VerticesAtLevel(k))
		}
		ca, cb := map[string]bool{}, map[string]bool{}
		for _, v := range SA.LevelVertices(k) {
			ca[v.Code] = true
		}
		for _, v := range SB.LevelVertices(k) {
			cb[v.Code] = true
		}
		if len(ca) != len(cb) {
			t.Errorf("level %d: class sets differ", k)
		}
		for c := range ca {
			if !cb[c] {
				t.Errorf("level %d: class %s missing in sequence B", k, c)
			}
		}
	}
}

func TestDeleteEdgeUpdatesSet(t *testing.T) {
	idx, _ := buildIndexes(t, 8, 20, 0.3)
	q, S := formulate(t, idx, []string{"C", "C", "C", "N"},
		[]edgeSpec{{0, 1}, {1, 2}, {0, 2}, {2, 3}})
	// Delete e1 (part of the triangle; query stays connected).
	if err := q.DeleteEdge(1); err != nil {
		t.Fatal(err)
	}
	S.DeleteEdge(1)
	if S.Spig(1) != nil {
		t.Error("S1 not removed")
	}
	// No surviving realization may mention step 1.
	for _, l := range S.Labels() {
		s := S.Spig(l)
		for k := 1; k <= s.MaxLevel(); k++ {
			for _, v := range s.Level(k) {
				for _, m := range v.Reps {
					if rep := S.Steps(m); intset.Contains(rep, 1) {
						t.Errorf("realization %v mentions deleted edge", rep)
					}
				}
			}
		}
	}
	// The surviving set must cover exactly the connected subgraphs of the
	// modified query.
	want := currentSubgraphClasses(q)
	for k := 1; k <= q.Size(); k++ {
		got := map[string]bool{}
		for _, v := range S.LevelVertices(k) {
			got[v.Code] = true
		}
		if len(got) != len(want[k]) {
			t.Fatalf("after deletion, level %d: %d classes vs %d", k, len(got), len(want[k]))
		}
	}
	// The target must exist and represent the modified query.
	tgt := S.Target(q)
	if tgt == nil {
		t.Fatal("no target after deletion")
	}
	g, _ := q.Graph()
	if tgt.Code != graph.CanonicalCode(g) {
		t.Error("target code does not match modified query")
	}
}

func TestConstructionAfterDeletion(t *testing.T) {
	// Delete an edge, then keep formulating: new SPIGs must still inherit
	// correctly (cross-SPIG lookups against the modified set).
	idx, _ := buildIndexes(t, 9, 20, 0.3)
	q, S := formulate(t, idx, []string{"C", "C", "C", "N", "O"},
		[]edgeSpec{{0, 1}, {1, 2}, {0, 2}})
	if err := q.DeleteEdge(2); err != nil {
		t.Fatal(err)
	}
	S.DeleteEdge(2)
	step, err := q.AddEdge(2, 3)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := S.Construct(q, step); err != nil {
		t.Fatal(err)
	}
	step, err = q.AddEdge(3, 4)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := S.Construct(q, step); err != nil {
		t.Fatal(err)
	}
	want := currentSubgraphClasses(q)
	for k := 1; k <= q.Size(); k++ {
		got := map[string]bool{}
		for _, v := range S.LevelVertices(k) {
			got[v.Code] = true
		}
		if len(got) != len(want[k]) {
			t.Fatalf("level %d: %d classes, want %d", k, len(got), len(want[k]))
		}
	}
	if S.Target(q) == nil {
		t.Error("missing target after post-deletion formulation")
	}
}

func TestDumpAndRemove(t *testing.T) {
	idx, _ := buildIndexes(t, 10, 15, 0.3)
	_, S := formulate(t, idx, []string{"C", "C", "N"},
		[]edgeSpec{{0, 1}, {1, 2}})
	dump := S.Dump()
	if dump == "" {
		t.Fatal("empty dump")
	}
	for _, want := range []string{"SPIG S1", "SPIG S2", "level 1", "cam="} {
		if !containsStr(dump, want) {
			t.Errorf("dump missing %q", want)
		}
	}
	if s := S.Spig(1); s.Source() == nil {
		t.Error("source vertex missing")
	}
	S.Remove(1)
	if S.Spig(1) != nil {
		t.Error("Remove left the SPIG behind")
	}
	if len(S.Labels()) != 1 || S.Labels()[0] != 2 {
		t.Errorf("labels after Remove: %v", S.Labels())
	}
	// Unlike DeleteEdge, Remove must not touch other SPIGs' realizations.
	if S.Spig(2).NumVertices() == 0 {
		t.Error("Remove emptied an unrelated SPIG")
	}
}

func TestLevelOutOfRange(t *testing.T) {
	idx, _ := buildIndexes(t, 11, 15, 0.3)
	_, S := formulate(t, idx, []string{"C", "C"}, []edgeSpec{{0, 1}})
	s := S.Spig(1)
	if s.Level(0) != nil || s.Level(5) != nil {
		t.Error("out-of-range levels should be nil")
	}
	if s.FindByCode(0, "x") != nil || s.FindByCode(9, "x") != nil {
		t.Error("out-of-range FindByCode should be nil")
	}
	if s.FindByCode(1, "nope") != nil {
		t.Error("missing code found")
	}
	if S.VerticesAtLevel(7) != 0 {
		t.Error("phantom vertices")
	}
}

func containsStr(haystack, needle string) bool {
	return len(haystack) >= len(needle) && strings.Contains(haystack, needle)
}
