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

// checkClassTable asserts that the class table holds exactly the classes
// the memo refers to: none is unreferenced, and none referred to is missing.
func checkClassTable(t *testing.T, S *Set) {
	t.Helper()
	referenced := map[*class]bool{}
	for _, r := range S.memo {
		referenced[r.c] = true
	}
	n := 0
	for _, bucket := range S.classes {
		for _, c := range bucket {
			if !referenced[c] {
				t.Fatalf("class %s is in the table but no memo entry refers to it", c.code)
			}
			n++
		}
	}
	if n != len(referenced) {
		t.Fatalf("the table holds %d classes, the memo refers to %d", n, len(referenced))
	}
}

// checkAgainstRebuild asserts checkCodes and checkClassTable, that the
// slots hold exactly the live edges with no memo entry naming a freed slot,
// and that each level's class set equals that of a Set built from scratch
// over q's edges.
func checkAgainstRebuild(t *testing.T, q *query.Query, S *Set) {
	t.Helper()
	checkCodes(t, S)
	checkClassTable(t, S)
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

// TestSettleSplitsWLTwins draws one all-C query that holds two 7-edge WL
// twins at once: the hexagon 0..5 with the chord 0-3 (two fused squares) and
// the triangles 0-1-2 and 3-4-5 joined by that chord. Both have 6 nodes, 7
// edges and the same (degree, neighbour degrees) colours, so they share the
// invariant, yet are not isomorphic: the second met must fail VF2 against
// the first's class and get its own code. The class table keeps only what
// the memo refers to, so both classes must be live in one query.
func TestSettleSplitsWLTwins(t *testing.T) {
	q := query.New()
	S := NewSet(noIndex{})
	var n [6]int
	for i := range n {
		n[i] = q.AddNode("C")
	}
	drawRing(t, q, S, n[:])
	for _, e := range [][2]int{{0, 3}, {0, 2}, {3, 5}} {
		drawEdge(t, q, S, n[e[0]], n[e[1]])
	}
	checkAgainstRebuild(t, q, S)

	find := func(edges ...[2]int) *Vertex {
		t.Helper()
		var steps []int
		for _, e := range edges {
			for _, st := range q.Steps() {
				if ed, _ := q.Edge(st); (ed.A == n[e[0]] && ed.B == n[e[1]]) || (ed.A == n[e[1]] && ed.B == n[e[0]]) {
					steps = append(steps, st)
				}
			}
		}
		frag, ok := q.FragmentOf(steps)
		if !ok || len(steps) != len(edges) {
			t.Fatalf("fragment %v is not a connected subgraph of the query", edges)
		}
		code := graph.CanonicalCode(frag)
		for _, v := range S.LevelVertices(len(edges)) {
			if v.Code == code {
				return v
			}
		}
		t.Fatalf("no level-%d vertex has the code of %v", len(edges), edges)
		return nil
	}
	squares := find([2]int{0, 1}, [2]int{1, 2}, [2]int{2, 3}, [2]int{3, 4}, [2]int{4, 5}, [2]int{5, 0}, [2]int{0, 3})
	triangles := find([2]int{0, 1}, [2]int{1, 2}, [2]int{0, 2}, [2]int{3, 4}, [2]int{4, 5}, [2]int{3, 5}, [2]int{0, 3})
	if squares.Code == triangles.Code {
		t.Fatal("the fused squares and the bridged triangles got one code")
	}
	shared := false
	for _, bucket := range S.classes {
		var hasS, hasT bool
		for _, c := range bucket {
			hasS = hasS || c.code == squares.Code
			hasT = hasT || c.code == triangles.Code
		}
		shared = shared || (hasS && hasT)
	}
	if !shared {
		t.Fatal("the twins landed in different buckets: the settle path went untested")
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

// TestClassTableShrinksWithDeletions formulates the three-ring ladder, then
// deletes its newest edge until one is left: after every deletion the class
// table holds exactly the classes the memo refers to, down to the single
// edge's one class.
func TestClassTableShrinksWithDeletions(t *testing.T) {
	labels, edges := hexLadder(3)
	q := query.New()
	for _, l := range labels {
		q.AddNode(l)
	}
	S := NewSet(noIndex{})
	for _, e := range edges {
		drawEdge(t, q, S, e.a, e.b)
	}
	checkClassTable(t, S)
	full := 0
	for _, bucket := range S.classes {
		full += len(bucket)
	}
	for q.Size() > 1 {
		steps := q.Steps()
		last := steps[len(steps)-1]
		if err := q.DeleteEdge(last); err != nil {
			t.Fatal(err)
		}
		S.DeleteEdge(last)
		checkClassTable(t, S)
	}
	left := 0
	for _, bucket := range S.classes {
		left += len(bucket)
	}
	if left != 1 || full <= left {
		t.Fatalf("the table held %d classes on the ladder and %d on one edge, want many and then 1", full, left)
	}
}
