package graph

import (
	"bytes"
	"encoding/gob"
	"math/rand"
	"testing"
)

// labeledPath builds a path with alternating edge labels.
func labeledPath(nodeLabels []string, edgeLabels []string) *Graph {
	g := New(-1)
	for _, l := range nodeLabels {
		g.AddNode(l)
	}
	for i := 0; i+1 < len(nodeLabels); i++ {
		if err := g.AddLabeledEdge(i, i+1, edgeLabels[i]); err != nil {
			panic(err)
		}
	}
	return g
}

func randomBonded(r *rand.Rand, n int, labels, bonds []string, extra int) *Graph {
	g := New(-1)
	for i := 0; i < n; i++ {
		g.AddNode(labels[r.Intn(len(labels))])
	}
	for i := 1; i < n; i++ {
		if err := g.AddLabeledEdge(i, r.Intn(i), bonds[r.Intn(len(bonds))]); err != nil {
			panic(err)
		}
	}
	for k := 0; k < extra; k++ {
		u, v := r.Intn(n), r.Intn(n)
		if u != v && !g.HasEdge(u, v) {
			if err := g.AddLabeledEdge(u, v, bonds[r.Intn(len(bonds))]); err != nil {
				panic(err)
			}
		}
	}
	return g
}

func TestEdgeLabelAccessors(t *testing.T) {
	g := labeledPath([]string{"C", "C", "O"}, []string{"1", "2"})
	if g.EdgeLabel(0, 1) != "1" || g.EdgeLabel(1, 0) != "1" {
		t.Error("EdgeLabel not symmetric")
	}
	if g.EdgeLabel(1, 2) != "2" {
		t.Error("wrong edge label")
	}
	if g.EdgeLabel(0, 2) != "" {
		t.Error("absent edge should have empty label")
	}
	if g.EdgeLabelAt(0) != "1" || g.EdgeLabelAt(1) != "2" {
		t.Error("EdgeLabelAt broken")
	}
}

func TestCanonicalCodeDistinguishesBondTypes(t *testing.T) {
	single := labeledPath([]string{"C", "C"}, []string{"1"})
	double := labeledPath([]string{"C", "C"}, []string{"2"})
	if CanonicalCode(single) == CanonicalCode(double) {
		t.Error("bond types not distinguished by canonical code")
	}
	if CAMCode(single) == CAMCode(double) {
		t.Error("bond types not distinguished by CAM code")
	}
	// Same labels: same codes.
	if CanonicalCode(single) != CanonicalCode(labeledPath([]string{"C", "C"}, []string{"1"})) {
		t.Error("identical labeled edges got different codes")
	}
}

func TestLabeledCanonicalInvariance(t *testing.T) {
	r := rand.New(rand.NewSource(71))
	labels := []string{"C", "N", "O"}
	bonds := []string{"1", "2", ""}
	for trial := 0; trial < 150; trial++ {
		n := 2 + r.Intn(6)
		g := randomBonded(r, n, labels, bonds, r.Intn(3))
		h, err := g.Permute(randomPerm(r, n))
		if err != nil {
			t.Fatal(err)
		}
		if CanonicalCode(g) != CanonicalCode(h) {
			t.Fatalf("trial %d: permuted labeled graph changed min DFS code", trial)
		}
		if CAMCode(g) != CAMCode(h) {
			t.Fatalf("trial %d: permuted labeled graph changed CAM code", trial)
		}
	}
}

func TestLabeledCAMAgreesWithDFS(t *testing.T) {
	r := rand.New(rand.NewSource(73))
	labels := []string{"C", "N"}
	bonds := []string{"1", "2"}
	for trial := 0; trial < 250; trial++ {
		g := randomBonded(r, 2+r.Intn(5), labels, bonds, r.Intn(2))
		h := randomBonded(r, 2+r.Intn(5), labels, bonds, r.Intn(2))
		if (CanonicalCode(g) == CanonicalCode(h)) != (CAMCode(g) == CAMCode(h)) {
			t.Fatalf("trial %d: canonical forms disagree on labeled graphs\n g=%v\n h=%v", trial, g, h)
		}
	}
}

func TestVF2RespectsEdgeLabels(t *testing.T) {
	// Query C=C (double bond) must not match a single-bonded C-C.
	q := labeledPath([]string{"C", "C"}, []string{"2"})
	gSingle := labeledPath([]string{"C", "C", "C"}, []string{"1", "1"})
	gMixed := labeledPath([]string{"C", "C", "C"}, []string{"1", "2"})
	if SubgraphIsomorphic(q, gSingle) {
		t.Error("double bond matched single bond")
	}
	if !SubgraphIsomorphic(q, gMixed) {
		t.Error("double bond not found in mixed path")
	}
	// Distance reflects edge-label mismatches.
	q2 := labeledPath([]string{"C", "C", "C"}, []string{"2", "2"})
	if d := SubgraphDistance(q2, gMixed); d != 1 {
		t.Errorf("dist = %d, want 1 (one matching double bond)", d)
	}
	// "" is a label of its own: an unlabeled query edge does not match a
	// labeled data edge, nor a labeled query edge an unlabeled one.
	plain := path("C", "C")
	bonded := labeledPath([]string{"C", "C"}, []string{"1"})
	if SubgraphIsomorphic(plain, bonded) {
		t.Error("unlabeled query edge matched a labeled data edge")
	}
	if SubgraphIsomorphic(bonded, plain) {
		t.Error("labeled query edge matched an unlabeled data edge")
	}
	half := labeledPath([]string{"C", "C", "C"}, []string{"1", ""})
	if CountEmbeddings(plain, half, 0) != 2 || CountEmbeddings(bonded, half, 0) != 2 {
		t.Error("each query edge should match exactly its own data edge, both ways")
	}
}

func TestLabeledEmbeddingValidity(t *testing.T) {
	r := rand.New(rand.NewSource(79))
	labels := []string{"C", "N"}
	bonds := []string{"1", "2"}
	for trial := 0; trial < 100; trial++ {
		g := randomBonded(r, 4+r.Intn(5), labels, bonds, r.Intn(3))
		subs := ConnectedEdgeSubgraphs(g)
		k := 1 + r.Intn(g.Size())
		if len(subs[k]) == 0 {
			continue
		}
		q := subs[k][r.Intn(len(subs[k]))]
		m := FindEmbedding(q, g)
		if m == nil {
			t.Fatalf("trial %d: labeled subgraph not found in its host", trial)
		}
		for _, e := range q.Edges() {
			if q.EdgeLabel(e.U, e.V) != g.EdgeLabel(m[e.U], m[e.V]) {
				t.Fatal("embedding violates edge labels")
			}
		}
	}
}

func TestLabeledTextAndGobRoundTrip(t *testing.T) {
	g := labeledPath([]string{"C", "N", "O"}, []string{"1", "2"})
	g.ID = 5
	var buf bytes.Buffer
	if err := WriteAll(&buf, []*Graph{g}); err != nil {
		t.Fatal(err)
	}
	back, err := ReadAll(&buf)
	if err != nil {
		t.Fatal(err)
	}
	if back[0].EdgeLabel(0, 1) != "1" || back[0].EdgeLabel(1, 2) != "2" {
		t.Error("edge labels lost in text round trip")
	}
	if CanonicalCode(back[0]) != CanonicalCode(g) {
		t.Error("text round trip changed the graph")
	}
	clone := g.Clone()
	if clone.EdgeLabel(0, 1) != "1" {
		t.Error("Clone dropped edge labels")
	}
	sub, err := g.DeleteEdge(1, 2)
	if err != nil {
		t.Fatal(err)
	}
	if sub.EdgeLabel(0, 1) != "1" {
		t.Error("DeleteEdge dropped surviving edge labels")
	}
}

// checkLabelForm asserts the edge-label representation invariant: the label
// slice is nil exactly when no edge carries a label, and aligned with the
// edges otherwise.
func checkLabelForm(t *testing.T, what string, g *Graph) {
	t.Helper()
	labeled := false
	for i := range g.Edges() {
		labeled = labeled || g.EdgeLabelAt(i) != ""
	}
	if labeled != (g.edgeLabels != nil) {
		t.Fatalf("%s: has labeled edges = %v but label slice = %q", what, labeled, g.edgeLabels)
	}
	if g.edgeLabels != nil && len(g.edgeLabels) != g.NumEdges() {
		t.Fatalf("%s: %d labels for %d edges", what, len(g.edgeLabels), g.NumEdges())
	}
}

// checkLabelsCarried asserts every edge of cp has the label of its image in
// orig, where toOrig maps cp's nodes to orig's.
func checkLabelsCarried(t *testing.T, what string, orig, cp *Graph, toOrig func(int) int) {
	t.Helper()
	checkLabelForm(t, what, cp)
	for i, e := range cp.Edges() {
		if got, want := cp.EdgeLabelAt(i), orig.EdgeLabel(toOrig(e.U), toOrig(e.V)); got != want {
			t.Fatalf("%s: edge %v has label %q, want %q", what, e, got, want)
		}
	}
}

func TestFirstLabeledEdgeBackfills(t *testing.T) {
	// C0-C1-N2-O3 plus the chord 0-2; the third edge is the first labeled one.
	g := New(-1)
	for _, l := range []string{"C", "C", "N", "O"} {
		g.AddNode(l)
	}
	for _, e := range []struct {
		u, v  int
		label string
	}{{0, 1, ""}, {1, 2, ""}, {2, 3, "2"}, {0, 2, ""}} {
		if err := g.AddLabeledEdge(e.u, e.v, e.label); err != nil {
			t.Fatal(err)
		}
		checkLabelForm(t, "while building", g)
	}
	for i, want := range []string{"", "", "2", ""} {
		if got := g.EdgeLabelAt(i); got != want {
			t.Errorf("EdgeLabelAt(%d) = %q, want %q", i, got, want)
		}
	}
	if g.EdgeLabel(1, 0) != "" || g.EdgeLabel(3, 2) != "2" || g.EdgeLabel(0, 3) != "" {
		t.Error("EdgeLabel wrong after backfill")
	}
	// The same graph with the labeled edge drawn first holds its labels from
	// the start; the codes must agree.
	h := New(-1)
	for _, l := range []string{"C", "C", "N", "O"} {
		h.AddNode(l)
	}
	if err := h.AddLabeledEdge(2, 3, "2"); err != nil {
		t.Fatal(err)
	}
	h.MustAddEdge(0, 1)
	h.MustAddEdge(1, 2)
	h.MustAddEdge(0, 2)
	if CanonicalCode(g) != CanonicalCode(h) || CAMCode(g) != CAMCode(h) {
		t.Error("backfilled graph and labeled-from-the-start graph got different codes")
	}
}

func TestEdgeLabelFormSurvivesCopies(t *testing.T) {
	labeled := New(3)
	for _, l := range []string{"C", "N", "O", "C"} {
		labeled.AddNode(l)
	}
	for _, e := range []struct {
		u, v  int
		label string
	}{{0, 1, "1"}, {1, 2, ""}, {2, 3, "2"}, {3, 0, ""}} {
		if err := labeled.AddLabeledEdge(e.u, e.v, e.label); err != nil {
			t.Fatal(err)
		}
	}
	unlabeled := cycle("C", "N", "O", "C")
	unlabeled.ID = 4
	same := func(v int) int { return v }
	for _, tc := range []struct {
		name string
		g    *Graph
	}{{"labeled", labeled}, {"unlabeled", unlabeled}} {
		name, g := tc.name, tc.g
		checkLabelForm(t, name, g)
		checkLabelsCarried(t, name+" Clone", g, g.Clone(), same)

		perm := []int{2, 0, 3, 1}
		p, err := g.Permute(perm)
		if err != nil {
			t.Fatal(err)
		}
		inv := make([]int, len(perm))
		for i, v := range perm {
			inv[v] = i
		}
		checkLabelsCarried(t, name+" Permute", g, p, func(v int) int { return inv[v] })

		d, err := g.DeleteEdge(3, 0) // the closing edge: node ids are kept
		if err != nil {
			t.Fatal(err)
		}
		checkLabelsCarried(t, name+" DeleteEdge", g, d, same)

		sub, back := g.EdgeInducedSubgraph(g.Edges()[1:3])
		checkLabelsCarried(t, name+" EdgeInducedSubgraph", g, sub, func(v int) int { return back[v] })

		var buf bytes.Buffer
		if err := WriteAll(&buf, []*Graph{g}); err != nil {
			t.Fatal(err)
		}
		text, err := ReadAll(&buf)
		if err != nil {
			t.Fatal(err)
		}
		checkLabelsCarried(t, name+" text round trip", g, text[0], same)

		blob, err := g.GobEncode()
		if err != nil {
			t.Fatal(err)
		}
		var back2 Graph
		if err := back2.GobDecode(blob); err != nil {
			t.Fatal(err)
		}
		checkLabelsCarried(t, name+" gob round trip", g, &back2, same)
		for _, cp := range []*Graph{g.Clone(), p, text[0], &back2} {
			if CanonicalCode(cp) != CanonicalCode(g) {
				t.Errorf("%s: a copy changed the canonical code", name)
			}
		}
	}
	// Removing the only labeled edges leaves a label-free graph.
	sub, _ := labeled.EdgeInducedSubgraph([]Edge{{1, 2}, {0, 3}})
	checkLabelForm(t, "labels deleted", sub)
	if sub.edgeLabels != nil {
		t.Error("subgraph of unlabeled edges kept a label slice")
	}
}

// TestGobDecodesExplicitEmptyLabels decodes a payload in the older encoding,
// which carried an explicit "" per edge, into the label-free form.
func TestGobDecodesExplicitEmptyLabels(t *testing.T) {
	g := cycle("C", "C", "N")
	var buf bytes.Buffer
	old := gobGraph{ID: 9, Labels: []string{"C", "C", "N"}, Edges: g.Edges(), EdgeLabels: []string{"", "", ""}}
	if err := gob.NewEncoder(&buf).Encode(old); err != nil {
		t.Fatal(err)
	}
	var back Graph
	if err := back.GobDecode(buf.Bytes()); err != nil {
		t.Fatal(err)
	}
	checkLabelForm(t, "decoded", &back)
	if back.edgeLabels != nil {
		t.Errorf("explicit empty labels decoded to %q, want the nil form", back.edgeLabels)
	}
	if CanonicalCode(&back) != CanonicalCode(g) {
		t.Error("decoded graph has a different canonical code")
	}
	for i := range g.Edges() {
		if back.EdgeLabelAt(i) != g.EdgeLabelAt(i) {
			t.Errorf("EdgeLabelAt(%d) differs after decode", i)
		}
	}
}
