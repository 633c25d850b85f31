package graph

import (
	"fmt"
	"math/rand"
	"strings"
	"testing"
)

// bruteOracle enumerates embeddings by plain backtracking in query-node
// index order over an edge table of its own. It shares no code with vf2.go —
// no visit order, no degree pruning, no pooled state — so a bug in the VF2
// search cannot sit on both sides of a check, as it does in the differential
// tests (naivescan and core's test oracle both bottom out in VF2).
type bruteOracle struct {
	q, g  *Graph
	gEdge map[[2]int]string // both orientations of every data edge -> its label
}

func newBruteOracle(q, g *Graph) *bruteOracle {
	o := &bruteOracle{q: q, g: g, gEdge: map[[2]int]string{}}
	for i, e := range g.Edges() {
		o.gEdge[[2]int{e.U, e.V}] = g.EdgeLabelAt(i)
		o.gEdge[[2]int{e.V, e.U}] = g.EdgeLabelAt(i)
	}
	return o
}

// edgeOK reports whether query edge i lands on a data edge with its label
// under m.
func (o *bruteOracle) edgeOK(i int, m []int) bool {
	e := o.q.Edges()[i]
	l, ok := o.gEdge[[2]int{m[e.U], m[e.V]}]
	return ok && l == o.q.EdgeLabelAt(i)
}

// count returns the number of injective, node-label-preserving maps from q
// into g under which every query edge lands on a data edge with the same
// label. A query edge is checked once both its endpoints are mapped.
func (o *bruteOracle) count() int {
	m := make([]int, o.q.NumNodes())
	used := make([]bool, o.g.NumNodes())
	var rec func(v int) int
	rec = func(v int) int {
		if v == len(m) {
			return 1
		}
		n := 0
		for w := range used {
			if used[w] || o.g.Label(w) != o.q.Label(v) {
				continue
			}
			m[v] = w
			ok := true
			for i, e := range o.q.Edges() {
				if max(e.U, e.V) == v && !o.edgeOK(i, m) {
					ok = false
					break
				}
			}
			if ok {
				used[w] = true
				n += rec(v + 1)
				used[w] = false
			}
		}
		return n
	}
	return rec(0)
}

// valid reports whether m is an embedding of q into g.
func (o *bruteOracle) valid(m []int) bool {
	if len(m) != o.q.NumNodes() {
		return false
	}
	seen := make([]bool, o.g.NumNodes())
	for v, w := range m {
		if w < 0 || w >= len(seen) || seen[w] || o.g.Label(w) != o.q.Label(v) {
			return false
		}
		seen[w] = true
	}
	for i := range o.q.Edges() {
		if !o.edgeOK(i, m) {
			return false
		}
	}
	return true
}

// dumpGraph renders nodes and labeled edges, for failure messages.
func dumpGraph(g *Graph) string {
	var b strings.Builder
	for v := range g.NumNodes() {
		b.WriteString(g.Label(v))
	}
	for i, e := range g.Edges() {
		fmt.Fprintf(&b, " %d-%d", e.U, e.V)
		if l := g.EdgeLabelAt(i); l != "" {
			fmt.Fprintf(&b, ":%s", l)
		}
	}
	return b.String()
}

// checkAgainstBrute holds SubgraphIsomorphic, CountEmbeddings and
// FindEmbedding to the oracle and returns the embedding count.
func checkAgainstBrute(q, g *Graph) (int, error) {
	o := newBruteOracle(q, g)
	want := o.count()
	where := fmt.Sprintf("q=[%s] g=[%s] (brute force: %d embeddings)", dumpGraph(q), dumpGraph(g), want)
	if got := SubgraphIsomorphic(q, g); got != (want > 0) {
		return want, fmt.Errorf("SubgraphIsomorphic = %v; %s", got, where)
	}
	if got := CountEmbeddings(q, g, 0); got != want {
		return want, fmt.Errorf("CountEmbeddings = %d; %s", got, where)
	}
	m := FindEmbedding(q, g)
	if want == 0 && m != nil {
		return want, fmt.Errorf("FindEmbedding = %v on a non-match; %s", m, where)
	}
	if want > 0 && !o.valid(m) {
		return want, fmt.Errorf("FindEmbedding = %v, not an embedding; %s", m, where)
	}
	return want, nil
}

// oracleShape is an unlabeled shape: a node count and an edge list.
type oracleShape struct {
	name  string
	n     int
	edges [][2]int
}

func pathShape(n int) oracleShape {
	s := oracleShape{name: fmt.Sprintf("P%d", n), n: n}
	for v := 1; v < n; v++ {
		s.edges = append(s.edges, [2]int{v - 1, v})
	}
	return s
}

func cycleShape(n int) oracleShape {
	s := pathShape(n)
	s.name = fmt.Sprintf("C%d", n)
	s.edges = append(s.edges, [2]int{n - 1, 0})
	return s
}

func starShape(leaves int) oracleShape {
	s := oracleShape{name: fmt.Sprintf("S%d", leaves), n: leaves + 1}
	for v := 1; v <= leaves; v++ {
		s.edges = append(s.edges, [2]int{0, v})
	}
	return s
}

func completeShape(n int) oracleShape {
	s := oracleShape{name: fmt.Sprintf("K%d", n), n: n}
	for u := 0; u < n; u++ {
		for v := u + 1; v < n; v++ {
			s.edges = append(s.edges, [2]int{u, v})
		}
	}
	return s
}

// combShape is a spine path 0..k-1 with leaf k+i hanging off spine node i.
func combShape(k int) oracleShape {
	s := pathShape(k)
	s.name, s.n = fmt.Sprintf("comb%d", k), 2*k
	for i := 0; i < k; i++ {
		s.edges = append(s.edges, [2]int{i, k + i})
	}
	return s
}

var triangleTail = oracleShape{"tri+tail", 4, [][2]int{{0, 1}, {1, 2}, {2, 0}, {2, 3}}}

func (s oracleShape) build(node func(v int) string, edge func(i int) string) *Graph {
	g := New(-1)
	for v := 0; v < s.n; v++ {
		g.AddNode(node(v))
	}
	for i, e := range s.edges {
		if err := g.AddLabeledEdge(e[0], e[1], edge(i)); err != nil {
			panic(err)
		}
	}
	return g
}

// labeling names a label per node index, or per edge index.
type labeling struct {
	name string
	of   func(k int) string
}

// TestVF2AgainstBruteForce runs every small query shape against every small
// data shape under one to three node labels and unlabeled, labeled and mixed
// edges, including a query label no data graph has, and holds the three
// VF2 entry points to the brute-force oracle on positives and negatives.
func TestVF2AgainstBruteForce(t *testing.T) {
	queryShapes := []oracleShape{
		pathShape(2), pathShape(3), pathShape(4), pathShape(6), starShape(3), starShape(5),
		cycleShape(3), triangleTail, cycleShape(4), completeShape(4), combShape(3),
	}
	dataShapes := []oracleShape{
		pathShape(5), pathShape(8), starShape(4), starShape(7), triangleTail, cycleShape(4),
		cycleShape(6), completeShape(4), completeShape(5), combShape(4),
	}
	pick := func(labels ...string) func(int) string {
		return func(k int) string { return labels[k%len(labels)] }
	}
	dataNodes := []labeling{
		{"C", pick("C")}, {"CN", pick("C", "N")}, {"NC", pick("N", "C")}, {"CNO", pick("C", "N", "O")},
	}
	// "P+C" puts a label on node 0 that no data graph has.
	queryNodes := []labeling{
		{"C", pick("C")}, {"CN", pick("C", "N")}, {"CNO", pick("C", "N", "O")},
		{"P+C", func(v int) string {
			if v == 0 {
				return "P"
			}
			return "C"
		}},
	}
	edges := []labeling{
		{"unlabeled", pick("")}, {"labeled", pick("1")}, {"mixed", pick("", "1", "2")},
	}

	build := func(shapes []oracleShape, nodes []labeling) (out []*Graph, names []string) {
		for _, s := range shapes {
			for _, nl := range nodes {
				for _, el := range edges {
					out = append(out, s.build(nl.of, el.of))
					names = append(names, s.name+"/"+nl.name+"/"+el.name)
				}
			}
		}
		return out, names
	}
	qs, qNames := build(queryShapes, queryNodes)
	gs, gNames := build(dataShapes, dataNodes)
	pos, neg := 0, 0
	for i, q := range qs {
		for j, g := range gs {
			n, err := checkAgainstBrute(q, g)
			if err != nil {
				t.Fatalf("%s in %s: %v", qNames[i], gNames[j], err)
			}
			if n > 0 {
				pos++
			} else {
				neg++
			}
		}
	}
	t.Logf("%d positive and %d negative pairs", pos, neg)
	if pos == 0 || neg == 0 {
		t.Fatalf("vacuous table: %d positive, %d negative pairs", pos, neg)
	}
}

// FuzzSubgraphIsomorphic holds VF2 to the brute-force oracle on fuzzed
// pairs: a query of 2–6 nodes and a data graph of 2–8 nodes (see
// decodeFuzzGraph). kinds picks the node alphabet (1–3 labels), the edge
// labels of each side (unlabeled, labeled or mixed), whether the query may
// draw a label the data graph never has, and whether the data graph is
// padded (padGraph) to 65 or 129 nodes, past one or two bitset words.
func FuzzSubgraphIsomorphic(f *testing.F) {
	f.Add([]byte{1, 0, 0, 0, 0, 0, 0}, []byte{1, 0, 0, 0, 0, 0, 0, 0, 0, 0, 1, 0}, byte(0))                   // C-C-C in a triangle
	f.Add([]byte{0, 0, 1, 0, 0}, []byte{3, 0, 1, 0, 1, 0, 0, 0, 1, 0, 2, 0}, byte(1+3*1))                     // labeled query, unlabeled data
	f.Add([]byte{0, 0, 0, 0, 0}, []byte{2, 0, 0, 0, 0, 0, 0, 0, 0, 1}, byte(3*2+9*1))                         // mixed query, labeled data
	f.Add([]byte{2, 0, 3, 1, 0, 0, 0, 1, 0}, []byte{6, 0, 1, 2, 0, 1, 2, 0, 0, 0, 0, 1, 0, 2, 0}, byte(2+27)) // absent label
	f.Add([]byte{4, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 1, 0, 0, 2, 0}, []byte{6, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 1, 0, 0, 2, 0, 0, 3, 0}, byte(0))
	f.Add([]byte{2, 0, 1, 0, 0, 0, 0, 0, 0}, []byte{6, 0, 1, 0, 1, 0, 1, 0, 0, 0, 1, 0, 2, 0, 3, 0, 4, 0, 5, 0}, byte(1+54)) // CN path in a CN path padded to 65 nodes

	f.Fuzz(func(t *testing.T, qBytes, gBytes []byte, kinds byte) {
		labels := []string{"C", "N", "O"}[:1+int(kinds)%3]
		bondSets := [][]string{{""}, {"1", "2"}, {"", "1"}}
		qLabels := labels
		if kinds/27%2 == 1 {
			qLabels = append(labels[:len(labels):len(labels)], "P")
		}
		q := decodeFuzzGraph(qBytes, 6, qLabels, bondSets[int(kinds/3)%3])
		g := decodeFuzzGraph(gBytes, 8, labels, bondSets[int(kinds/9)%3])
		if q == nil || g == nil {
			t.Skip("undecodable byte stream")
		}
		if kinds/54%2 == 1 {
			g = padGraph(g, 65+64*int(kinds/108), "X", int64(kinds))
		}
		if _, err := checkAgainstBrute(q, g); err != nil {
			t.Fatal(err)
		}
	})
}

// padGraph returns g grown to n nodes by a chain of nodes labelled pad that
// hangs off node 0, with every id then shuffled (seeded), so g's own nodes
// land in different words of the search's bitsets. The pad label must be one
// the query lacks: the padded pair then has exactly g's embeddings.
func padGraph(g *Graph, n int, pad string, seed int64) *Graph {
	p := g.Clone()
	prev := 0
	for p.NumNodes() < n {
		v := p.AddNode(pad)
		p.MustAddEdge(prev, v)
		prev = v
	}
	out, err := p.Permute(rand.New(rand.NewSource(seed)).Perm(p.NumNodes()))
	if err != nil {
		panic(err)
	}
	return out
}

// cutPath is an all-C path on n nodes without its edge {cut-1, cut} (no
// edge is missing when cut is 0).
func cutPath(n, cut int) *Graph {
	g := New(-1)
	for v := 0; v < n; v++ {
		g.AddNode("C")
	}
	for v := 1; v < n; v++ {
		if v != cut {
			g.MustAddEdge(v-1, v)
		}
	}
	return g
}

// TestVF2WordBoundaries pads small pairs' data graphs across the 64-node
// word boundaries of the search's bitsets (63, 64, 65, 128, 129 and the
// molecule sets' 222-node tail) and holds every padded pair to its unpadded
// answer and to the brute-force oracle.
func TestVF2WordBoundaries(t *testing.T) {
	cn := func(k int) string { return []string{"C", "N"}[k%2] }
	c := func(int) string { return "C" }
	none := func(int) string { return "" }
	bond := func(k int) string { return []string{"1", "2"}[k%2] }
	pairs := []struct {
		name string
		q, g *Graph
	}{
		{"P4/CN in comb4/CN", pathShape(4).build(cn, none), combShape(4).build(cn, none)},
		{"C3 in tri+tail", cycleShape(3).build(c, none), triangleTail.build(c, none)},
		{"S3 in K5", starShape(3).build(c, none), completeShape(5).build(c, none)},
		{"C4 in K4", cycleShape(4).build(c, none), completeShape(4).build(c, none)},
		{"bonded P3 in C6", pathShape(3).build(c, bond), cycleShape(6).build(c, bond)},
		{"K4 in comb4 (none)", completeShape(4).build(c, none), combShape(4).build(c, none)},
		{"comb3/CN in P8/CN (none)", combShape(3).build(cn, none), pathShape(8).build(cn, none)},
	}
	for _, p := range pairs {
		want, err := checkAgainstBrute(p.q, p.g)
		if err != nil {
			t.Fatalf("%s unpadded: %v", p.name, err)
		}
		for i, n := range []int{63, 64, 65, 128, 129, 222} {
			g := padGraph(p.g, n, "X", int64(i))
			got, err := checkAgainstBrute(p.q, g)
			if err != nil {
				t.Fatalf("%s padded to %d: %v", p.name, n, err)
			}
			if got != want {
				t.Fatalf("%s padded to %d: %d embeddings, unpadded %d", p.name, n, got, want)
			}
		}
	}
}

// TestVF2LongPath maps a 65-node path query, one node more than a bitset
// word, into 130- and 128-node paths with one edge cut.
func TestVF2LongPath(t *testing.T) {
	q := cutPath(65, 0)
	for _, tc := range []struct {
		name string
		g    *Graph
		want int
	}{
		{"P130", cutPath(130, 0), 2 * 66},
		{"P130 cut into 65+65", cutPath(130, 65), 2 * 2},
		{"P128 cut into 64+64", cutPath(128, 64), 0},
	} {
		for i, g := range []*Graph{tc.g, padGraph(tc.g, tc.g.NumNodes(), "X", 1)} {
			got, err := checkAgainstBrute(q, g)
			if err != nil {
				t.Fatalf("%s (shuffled %v): %v", tc.name, i == 1, err)
			}
			if got != tc.want {
				t.Fatalf("%s (shuffled %v): %d embeddings, want %d", tc.name, i == 1, got, tc.want)
			}
		}
	}
}
