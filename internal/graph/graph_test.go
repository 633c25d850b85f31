package graph

import (
	"math/rand"
	"strings"
	"testing"
)

// path builds a labeled path graph: labels[0]-labels[1]-...
func path(labels ...string) *Graph {
	g := New(-1)
	for _, l := range labels {
		g.AddNode(l)
	}
	for i := 0; i+1 < len(labels); i++ {
		g.MustAddEdge(i, i+1)
	}
	return g
}

// cycle builds a labeled cycle graph.
func cycle(labels ...string) *Graph {
	g := path(labels...)
	g.MustAddEdge(0, len(labels)-1)
	return g
}

// star builds a star: center label first, then leaves.
func star(center string, leaves ...string) *Graph {
	g := New(-1)
	c := g.AddNode(center)
	for _, l := range leaves {
		v := g.AddNode(l)
		g.MustAddEdge(c, v)
	}
	return g
}

func randomConnected(r *rand.Rand, n int, labels []string, extraEdges int) *Graph {
	g := New(-1)
	for i := 0; i < n; i++ {
		g.AddNode(labels[r.Intn(len(labels))])
	}
	for i := 1; i < n; i++ {
		g.MustAddEdge(i, r.Intn(i))
	}
	for k := 0; k < extraEdges; k++ {
		u, v := r.Intn(n), r.Intn(n)
		if u != v && !g.HasEdge(u, v) {
			g.MustAddEdge(u, v)
		}
	}
	return g
}

func randomPerm(r *rand.Rand, n int) []int {
	p := make([]int, n)
	for i, v := range r.Perm(n) {
		p[i] = v
	}
	return p
}

func TestAddEdgeValidation(t *testing.T) {
	g := New(0)
	g.AddNode("C")
	g.AddNode("O")
	if err := g.AddEdge(0, 0); err == nil {
		t.Error("self-loop accepted")
	}
	if err := g.AddEdge(0, 2); err == nil {
		t.Error("out-of-range edge accepted")
	}
	if err := g.AddEdge(0, 1); err != nil {
		t.Fatalf("valid edge rejected: %v", err)
	}
	if err := g.AddEdge(1, 0); err == nil {
		t.Error("duplicate (reversed) edge accepted")
	}
	if !g.HasEdge(1, 0) || !g.HasEdge(0, 1) {
		t.Error("HasEdge not symmetric")
	}
}

func TestConnected(t *testing.T) {
	if (New(0)).Connected() {
		t.Error("empty graph reported connected")
	}
	g := New(0)
	g.AddNode("C")
	if !g.Connected() {
		t.Error("single node should count as connected")
	}
	g.AddNode("C")
	if g.Connected() {
		t.Error("two isolated nodes reported connected")
	}
	g.MustAddEdge(0, 1)
	if !g.Connected() {
		t.Error("edge graph reported disconnected")
	}
}

func TestDeleteEdgeDropsDangling(t *testing.T) {
	g := path("C", "C", "O") // C-C-O
	sub, err := g.DeleteEdge(1, 2)
	if err != nil {
		t.Fatal(err)
	}
	if sub.NumNodes() != 2 || sub.NumEdges() != 1 {
		t.Fatalf("got %d nodes / %d edges, want 2/1", sub.NumNodes(), sub.NumEdges())
	}
	if sub.Label(0) != "C" || sub.Label(1) != "C" {
		t.Errorf("wrong labels after deletion: %v", sub)
	}
	if _, err := g.DeleteEdge(0, 2); err == nil {
		t.Error("deleting a non-edge succeeded")
	}
}

func TestDeleteBridgeDisconnects(t *testing.T) {
	g := path("C", "N", "N", "C") // deleting the middle edge splits it
	sub, err := g.DeleteEdge(1, 2)
	if err != nil {
		t.Fatal(err)
	}
	if sub.Connected() {
		t.Error("expected disconnected result after bridge deletion")
	}
	if sub.NumEdges() != 2 {
		t.Errorf("got %d edges, want 2", sub.NumEdges())
	}
}

func TestEdgeInducedSubgraph(t *testing.T) {
	g := cycle("C", "C", "O", "N")
	edges := g.Edges()[:2] // C-C, C-O
	sub, back := g.EdgeInducedSubgraph(edges)
	if sub.NumEdges() != 2 || sub.NumNodes() != 3 {
		t.Fatalf("got %d nodes/%d edges", sub.NumNodes(), sub.NumEdges())
	}
	for newV, oldV := range back {
		if sub.Label(newV) != g.Label(oldV) {
			t.Errorf("label mismatch at %d->%d", newV, oldV)
		}
	}
}

func TestCanonicalCodeIsomorphismInvariance(t *testing.T) {
	r := rand.New(rand.NewSource(42))
	labels := []string{"C", "N", "O", "S"}
	for trial := 0; trial < 200; trial++ {
		n := 2 + r.Intn(7)
		g := randomConnected(r, n, labels, r.Intn(4))
		perm := randomPerm(r, n)
		h, err := g.Permute(perm)
		if err != nil {
			t.Fatal(err)
		}
		if CanonicalCode(g) != CanonicalCode(h) {
			t.Fatalf("trial %d: isomorphic graphs got different codes\n g=%v\n h=%v", trial, g, h)
		}
	}
}

func TestCanonicalCodeDistinguishesNonIsomorphic(t *testing.T) {
	pairs := [][2]*Graph{
		{path("C", "C", "C"), star("C", "C", "C")},             // same for 3 nodes... path == star for n=3
		{path("C", "C", "C", "C"), star("C", "C", "C", "C")},   // P4 vs K1,3
		{cycle("C", "C", "C", "C"), path("C", "C", "C", "C")},  // C4 vs P4 (different edge count though)
		{path("C", "O", "C"), path("O", "C", "C")},             // label placement differs
		{cycle("C", "C", "O", "N"), cycle("C", "O", "C", "N")}, // label order around cycle
	}
	// Pair 0 is actually isomorphic (P3 == K1,2); it documents that fact.
	if CanonicalCode(pairs[0][0]) != CanonicalCode(pairs[0][1]) {
		t.Error("P3 and K1,2 should be isomorphic")
	}
	for i, p := range pairs[1:] {
		if CanonicalCode(p[0]) == CanonicalCode(p[1]) {
			t.Errorf("pair %d: non-isomorphic graphs share a code: %v vs %v", i+1, p[0], p[1])
		}
	}
}

func TestCanonicalCodeAgainstBruteForce(t *testing.T) {
	// For small random pairs, code equality must coincide with two-way
	// subgraph isomorphism of equal-size graphs (= isomorphism).
	r := rand.New(rand.NewSource(7))
	labels := []string{"C", "N"}
	for trial := 0; trial < 300; trial++ {
		n := 2 + r.Intn(5)
		g := randomConnected(r, n, labels, r.Intn(3))
		h := randomConnected(r, n, labels, r.Intn(3))
		if g.NumEdges() != h.NumEdges() {
			continue
		}
		iso := SubgraphIsomorphic(g, h) && SubgraphIsomorphic(h, g)
		same := CanonicalCode(g) == CanonicalCode(h)
		if iso != same {
			t.Fatalf("trial %d: iso=%v but codeEqual=%v\n g=%v\n h=%v", trial, iso, same, g, h)
		}
	}
}

func TestCodeGraphRoundTrip(t *testing.T) {
	r := rand.New(rand.NewSource(11))
	labels := []string{"C", "N", "O"}
	for trial := 0; trial < 100; trial++ {
		g := randomConnected(r, 2+r.Intn(6), labels, r.Intn(3))
		code := MinDFSCode(g)
		h := CodeGraph(code)
		if CanonicalCode(h) != EncodeCode(code) {
			t.Fatalf("round trip failed for %v", g)
		}
		if !IsMinCode(code) {
			t.Fatalf("minimum code reported non-minimal for %v", g)
		}
	}
}

func TestSingleNodeCode(t *testing.T) {
	g := New(0)
	g.AddNode("Hg")
	if code := CanonicalCode(g); !strings.Contains(code, "Hg") {
		t.Errorf("single-node code %q should carry the label", code)
	}
}

func TestSubgraphIsomorphicBasics(t *testing.T) {
	benzeneish := cycle("C", "C", "C", "C", "C", "C")
	p3 := path("C", "C", "C")
	if !SubgraphIsomorphic(p3, benzeneish) {
		t.Error("P3 should embed in C6")
	}
	if SubgraphIsomorphic(benzeneish, p3) {
		t.Error("C6 cannot embed in P3")
	}
	withO := path("C", "O", "C")
	if SubgraphIsomorphic(withO, benzeneish) {
		t.Error("C-O-C should not embed in all-carbon ring")
	}
	// Non-induced semantics: P3 embeds into a triangle.
	tri := cycle("C", "C", "C")
	if !SubgraphIsomorphic(p3, tri) {
		t.Error("subgraph isomorphism must be non-induced: P3 ⊆ K3")
	}
}

func TestFindEmbeddingIsValid(t *testing.T) {
	r := rand.New(rand.NewSource(3))
	labels := []string{"C", "N", "O"}
	for trial := 0; trial < 200; trial++ {
		g := randomConnected(r, 4+r.Intn(6), labels, r.Intn(5))
		// Take a random connected subgraph of g as query.
		subs := ConnectedEdgeSubgraphs(g)
		k := 1 + r.Intn(g.Size())
		if len(subs[k]) == 0 {
			continue
		}
		q := subs[k][r.Intn(len(subs[k]))]
		m := FindEmbedding(q, g)
		if m == nil {
			t.Fatalf("trial %d: subgraph of g not found in g\n q=%v\n g=%v", trial, q, g)
		}
		used := map[int]bool{}
		for qv, gv := range m {
			if q.Label(qv) != g.Label(gv) {
				t.Fatal("label-violating embedding")
			}
			if used[gv] {
				t.Fatal("non-injective embedding")
			}
			used[gv] = true
		}
		for _, e := range q.Edges() {
			if !g.HasEdge(m[e.U], m[e.V]) {
				t.Fatal("edge-violating embedding")
			}
		}
	}
}

func TestCountEmbeddings(t *testing.T) {
	tri := cycle("C", "C", "C")
	edge := path("C", "C")
	// Each of 3 edges matched in 2 directions.
	if got := CountEmbeddings(edge, tri, 0); got != 6 {
		t.Errorf("edge in triangle: got %d embeddings, want 6", got)
	}
	if got := CountEmbeddings(edge, tri, 2); got != 2 {
		t.Errorf("limit not honored: got %d", got)
	}
}

func TestConnectedEdgeSubgraphsCounts(t *testing.T) {
	// Triangle: 3 single edges (1 class), 3 paths (1 class), 1 triangle.
	tri := cycle("C", "C", "C")
	subs := ConnectedEdgeSubgraphs(tri)
	want := []int{0, 1, 1, 1}
	for k := 1; k <= 3; k++ {
		if len(subs[k]) != want[k] {
			t.Errorf("triangle k=%d: got %d classes, want %d", k, len(subs[k]), want[k])
		}
	}
	// Labeled path C-N-O: classes {C-N, N-O}, {C-N-O}.
	p := path("C", "N", "O")
	subs = ConnectedEdgeSubgraphs(p)
	if len(subs[1]) != 2 || len(subs[2]) != 1 {
		t.Errorf("path classes: got %d,%d want 2,1", len(subs[1]), len(subs[2]))
	}
}

func TestConnectedEdgeSubgraphsExhaustive(t *testing.T) {
	// Every enumerated subgraph must be connected; and the raw (pre-dedup)
	// count must equal brute force over all edge subsets.
	r := rand.New(rand.NewSource(5))
	for trial := 0; trial < 30; trial++ {
		g := randomConnected(r, 3+r.Intn(4), []string{"C", "N"}, r.Intn(3))
		raw := connectedEdgeSets(g)
		for _, set := range raw {
			sg, _ := g.EdgeInducedSubgraph(set)
			if !sg.Connected() {
				t.Fatalf("disconnected subgraph enumerated: %v of %v", set, g)
			}
		}
		want := bruteConnectedCount(g)
		if len(raw) != want {
			t.Fatalf("trial %d: enumerated %d connected edge sets, brute force says %d (g=%v)", trial, len(raw), want, g)
		}
	}
}

func bruteConnectedCount(g *Graph) int {
	m := g.Size()
	count := 0
	for mask := 1; mask < 1<<m; mask++ {
		var set []Edge
		for i := 0; i < m; i++ {
			if mask&(1<<i) != 0 {
				set = append(set, g.Edges()[i])
			}
		}
		sg, _ := g.EdgeInducedSubgraph(set)
		if sg.Connected() {
			count++
		}
	}
	return count
}

func TestMCCSAndDistance(t *testing.T) {
	// Paper's Example 1: query with 7 edges; graph (b) misses 1 edge
	// (δ=6/7), graph (c) misses 2 (δ=5/7). Reconstruct the spirit with
	// small graphs.
	q := cycle("C", "C", "C", "C") // 4 edges
	g1 := path("C", "C", "C", "C") // contains a 3-edge subgraph of q
	if got := MCCSSize(q, g1, 0); got != 3 {
		t.Errorf("MCCS(C4 in P4) = %d, want 3", got)
	}
	if d := SubgraphDistance(q, g1); d != 1 {
		t.Errorf("dist = %d, want 1", d)
	}
	if δ := SimilarityDegree(q, g1); δ != 0.75 {
		t.Errorf("δ = %v, want 0.75", δ)
	}
	if !WithinDistance(q, g1, 1) || WithinDistance(q, g1, 0) {
		t.Error("WithinDistance thresholds wrong")
	}
	// Exact containment gives distance 0.
	g2 := cycle("C", "C", "C", "C")
	if SubgraphDistance(q, g2) != 0 {
		t.Error("identical graph should be at distance 0")
	}
	// Disjoint labels: distance |q|.
	g3 := path("N", "N")
	if d := SubgraphDistance(q, g3); d != 4 {
		t.Errorf("dist to label-disjoint graph = %d, want 4", d)
	}
}

func TestWithinDistanceMatchesDefinition(t *testing.T) {
	r := rand.New(rand.NewSource(19))
	labels := []string{"C", "N", "O"}
	for trial := 0; trial < 60; trial++ {
		q := randomConnected(r, 3+r.Intn(3), labels, r.Intn(2))
		g := randomConnected(r, 4+r.Intn(5), labels, r.Intn(4))
		d := SubgraphDistance(q, g)
		for sigma := 0; sigma <= q.Size(); sigma++ {
			if got, want := WithinDistance(q, g, sigma), d <= sigma; got != want {
				t.Fatalf("trial %d σ=%d: WithinDistance=%v, dist=%d", trial, sigma, got, d)
			}
		}
	}
}

func TestPermuteValidation(t *testing.T) {
	g := path("C", "C")
	if _, err := g.Permute([]int{0}); err == nil {
		t.Error("short permutation accepted")
	}
	if _, err := g.Permute([]int{0, 0}); err == nil {
		t.Error("non-permutation accepted")
	}
	if _, err := g.Permute([]int{1, 0}); err != nil {
		t.Error("valid permutation rejected")
	}
}
