package spig

import (
	"errors"
	"math/bits"
	"math/rand"
	"testing"

	"prague/internal/graph"
	"prague/internal/query"
)

// checkCodes asserts that every vertex of S carries the canonical code of
// its own fragment: a class settled by VF2 must never inherit another
// class's code.
func checkCodes(t *testing.T, S *Set) {
	t.Helper()
	for _, l := range S.Labels() {
		s := S.Spig(l)
		for k := 1; k <= s.MaxLevel(); k++ {
			for _, v := range s.Level(k) {
				if want := graph.CanonicalCode(v.Frag); v.Code != want {
					t.Fatalf("S%d level %d: vertex code %s, its fragment's %s", l, k, v.Code, want)
				}
			}
		}
	}
}

// checkAgainstRebuild asserts checkCodes, that the slots hold exactly the
// live edges with no memo entry naming a freed slot, and that each level's
// class set equals that of a Set built from scratch over q's edges.
func checkAgainstRebuild(t *testing.T, q *query.Query, S *Set) {
	t.Helper()
	checkCodes(t, S)
	if live := bits.OnesCount64(S.used); live != q.Size() {
		t.Fatalf("%d slots used for %d live edges", live, q.Size())
	}
	for m := range S.memo {
		if m&^S.used != 0 {
			t.Fatalf("memo entry %b names a freed slot (used %b)", m, S.used)
		}
	}
	labels := make([]string, 0)
	for id := 0; ; id++ {
		l := q.NodeLabel(id)
		if l == "" {
			break
		}
		labels = append(labels, l)
	}
	fresh, _ := replaySet(t, q, labels)
	for k := 1; k <= q.Size(); k++ {
		got, want := map[string]bool{}, map[string]bool{}
		for _, v := range S.LevelVertices(k) {
			got[v.Code] = true
		}
		for _, v := range fresh.LevelVertices(k) {
			want[v.Code] = true
		}
		if len(got) != len(want) {
			t.Fatalf("level %d: %d classes, a fresh Set has %d", k, len(got), len(want))
		}
		for c := range want {
			if !got[c] {
				t.Fatalf("level %d: class %s missing, a fresh Set has it", k, c)
			}
		}
	}
}

// drawRing adds the ring of the given nodes to q, one edge per step.
func drawRing(t *testing.T, q *query.Query, S *Set, nodes []int) {
	t.Helper()
	for i := range nodes {
		drawEdge(t, q, S, nodes[i], nodes[(i+1)%len(nodes)])
	}
}

func drawEdge(t *testing.T, q *query.Query, S *Set, u, v int) {
	t.Helper()
	step, err := q.AddEdge(u, v)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := S.Construct(q, step); err != nil {
		t.Fatal(err)
	}
}

// TestSettleSplitsWLTwins puts decalin (two fused hexagons) and
// bicyclopentyl (two pentagons joined by an edge) into one Set: both are
// all-C with 10 nodes and 11 edges and share the invariant, yet are not
// isomorphic, so the second must fail VF2 against the first's class and get
// its own code.
func TestSettleSplitsWLTwins(t *testing.T) {
	q := query.New()
	S := NewSet(noIndex{})
	node := func() int { return q.AddNode("C") }

	// Decalin: hexagon 0..5, second hexagon fused on edge {4,5}.
	var d [10]int
	for i := range d {
		d[i] = node()
	}
	drawRing(t, q, S, d[:6])
	for _, e := range [][2]int{{5, 6}, {6, 7}, {7, 8}, {8, 9}, {9, 4}} {
		drawEdge(t, q, S, d[e[0]], d[e[1]])
	}
	decalin := S.Target(q)
	checkAgainstRebuild(t, q, S)

	// Delete it edge by edge, then draw bicyclopentyl on fresh nodes.
	for q.Size() > 0 {
		for _, st := range q.Steps() {
			if q.CanDelete(st) {
				if err := q.DeleteEdge(st); err != nil {
					t.Fatal(err)
				}
				S.DeleteEdge(st)
				break
			}
		}
	}
	var b [10]int
	for i := range b {
		b[i] = node()
	}
	drawRing(t, q, S, b[:5])
	drawEdge(t, q, S, b[0], b[5])
	drawRing(t, q, S, b[5:])
	bicyclopentyl := S.Target(q)
	checkAgainstRebuild(t, q, S)

	for _, v := range []*Vertex{decalin, bicyclopentyl} {
		if v == nil || v.Level != 11 || v.Frag.NumNodes() != 10 {
			t.Fatalf("target vertex %+v is not a 10-node, 11-edge fragment", v)
		}
		if want := graph.CanonicalCode(v.Frag); v.Code != want {
			t.Fatalf("vertex code %s, its fragment's %s", v.Code, want)
		}
	}
	if decalin.Code == bicyclopentyl.Code {
		t.Fatal("decalin and bicyclopentyl got one code")
	}
	shared := false
	for _, bucket := range S.classes {
		var hasD, hasB bool
		for _, c := range bucket {
			hasD = hasD || c.code == decalin.Code
			hasB = hasB || c.code == bicyclopentyl.Code
		}
		shared = shared || (hasD && hasB)
	}
	if !shared {
		t.Fatal("decalin and bicyclopentyl landed in different buckets: the settle path went untested")
	}
}

// TestSlotReuseAcrossEdits deletes a random deletable edge and draws it
// again, 150 times in one session: every re-drawn edge takes a fresh step
// and a slot above the used ones, so the slots run out and are compacted
// more than once. After every action the set must match a fresh rebuild.
func TestSlotReuseAcrossEdits(t *testing.T) {
	r := rand.New(rand.NewSource(51))
	q := query.New()
	S := NewSet(fuzzIndexes())
	labels := []string{"C", "C", "N", "O", "C", "S", "C"}
	var nodes []int
	for _, l := range labels {
		nodes = append(nodes, q.AddNode(l))
	}
	drawRing(t, q, S, nodes[:6])
	drawEdge(t, q, S, nodes[2], nodes[6])
	bonds := []string{"", "", "1", "2"}
	compactions := 0
	for i := 0; i < 150; i++ {
		var deletable []int
		for _, st := range q.Steps() {
			if q.CanDelete(st) {
				deletable = append(deletable, st)
			}
		}
		st := deletable[r.Intn(len(deletable))]
		e, _ := q.Edge(st)
		if err := q.DeleteEdge(st); err != nil {
			t.Fatal(err)
		}
		S.DeleteEdge(st)
		checkAgainstRebuild(t, q, S)

		if bits.Len64(S.used) == MaxLiveEdges {
			compactions++
		}
		step, err := q.AddLabeledEdge(e.A, e.B, bonds[r.Intn(len(bonds))])
		if err != nil {
			t.Fatal(err)
		}
		if _, err := S.Construct(q, step); err != nil {
			t.Fatal(err)
		}
		checkAgainstRebuild(t, q, S)
	}
	if compactions < 2 {
		t.Fatalf("slots compacted %d times in 150 re-draws, want at least 2", compactions)
	}
}

// TestSixtyFifthEdgeRefused draws a 64-edge path, then a 65th edge: its
// construction fails with ErrTooManyEdges and changes nothing, and once an
// edge is deleted the same edge builds and the session carries on.
func TestSixtyFifthEdgeRefused(t *testing.T) {
	q := query.New()
	S := NewSet(noIndex{})
	labels := []string{"C", "N", "O"}
	prev := q.AddNode("C")
	first := prev
	for i := 0; i < MaxLiveEdges; i++ {
		next := q.AddNode(labels[i%len(labels)])
		drawEdge(t, q, S, prev, next)
		prev = next
	}
	before := S.Dump()
	over := q.AddNode("C")
	step, err := q.AddEdge(prev, over)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := S.Construct(q, step); !errors.Is(err, ErrTooManyEdges) {
		t.Fatalf("65th live edge: err = %v, want ErrTooManyEdges", err)
	}
	if S.Spig(step) != nil || S.Dump() != before {
		t.Fatal("a refused edge changed the SPIG set")
	}

	// Deleting the path's first edge frees a slot for the refused one.
	oldest := q.Steps()[0]
	if e, _ := q.Edge(oldest); e.A != first && e.B != first {
		t.Fatalf("step %d is not the path's first edge", oldest)
	}
	if err := q.DeleteEdge(oldest); err != nil {
		t.Fatal(err)
	}
	S.DeleteEdge(oldest)
	if _, err := S.Construct(q, step); err != nil {
		t.Fatalf("the edge after a deletion: %v", err)
	}
	checkAgainstRebuild(t, q, S)
	g, _ := q.Graph()
	if tgt := S.Target(q); tgt == nil || tgt.Code != graph.CanonicalCode(g) {
		t.Fatal("target does not match the 64-edge query")
	}
}
