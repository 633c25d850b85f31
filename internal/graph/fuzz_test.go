package graph

import (
	"bytes"
	"testing"
)

// decodeFuzzGraph turns an arbitrary byte stream into a small connected
// labeled graph: the first byte sizes the node set (2..maxNodes), each node
// takes a label byte indexing labels, nodes after the first attach to an
// earlier node (spanning tree, so the graph is always connected with ≥ 1
// edge — MinDFSCode's domain), and remaining byte triples propose extra
// edges; every edge takes a bond byte indexing bonds. Returns nil when the
// stream is too short to build anything.
func decodeFuzzGraph(data []byte, maxNodes int, labels, bonds []string) *Graph {
	r := bytes.NewReader(data)
	next := func() (byte, bool) {
		b, err := r.ReadByte()
		return b, err == nil
	}
	sz, ok := next()
	if !ok {
		return nil
	}
	n := 2 + int(sz)%(maxNodes-1)
	g := New(0)
	for v := 0; v < n; v++ {
		lb, _ := next()
		g.AddNode(labels[int(lb)%len(labels)])
	}
	for v := 1; v < n; v++ {
		anchor, _ := next()
		bond, _ := next()
		if err := g.AddLabeledEdge(v, int(anchor)%v, bonds[int(bond)%len(bonds)]); err != nil {
			return nil
		}
	}
	for {
		a, ok1 := next()
		b, ok2 := next()
		bond, ok3 := next()
		if !ok1 || !ok2 || !ok3 || g.NumEdges() >= 10 {
			break
		}
		u, v := int(a)%n, int(b)%n
		if u == v || g.HasEdge(u, v) {
			continue
		}
		if err := g.AddLabeledEdge(u, v, bonds[int(bond)%len(bonds)]); err != nil {
			return nil
		}
	}
	return g
}

// decodeFuzzPerm derives a permutation of [0,n) from a byte stream via
// Fisher-Yates, consuming one byte per swap.
func decodeFuzzPerm(data []byte, n int) []int {
	perm := make([]int, n)
	for i := range perm {
		perm[i] = i
	}
	for i := n - 1; i > 0; i-- {
		var b byte
		if len(data) > 0 {
			b = data[0]
			data = data[1:]
		}
		j := int(b) % (i + 1)
		perm[i], perm[j] = perm[j], perm[i]
	}
	return perm
}

// FuzzCanonicalCode checks the defining property of the minimum DFS code as
// a canonical form: relabeling the nodes of a graph (any permutation) must
// not change its code, and the code must decode back to an isomorphic graph.
func FuzzCanonicalCode(f *testing.F) {
	// Committed seeds: a triangle, a labeled path, a star, and a dense blob.
	f.Add([]byte{3, 0, 1, 2, 0, 0, 1, 1, 0, 2, 0}, []byte{1, 2})
	f.Add([]byte{4, 0, 0, 3, 4, 0, 1, 0, 2, 1, 0}, []byte{3, 1, 2})
	f.Add([]byte{5, 1, 1, 1, 1, 0, 0, 0, 0, 0, 0, 0, 0, 0}, []byte{4, 3, 2, 1})
	f.Add([]byte{6, 0, 1, 2, 3, 4, 0, 0, 1, 1, 0, 2, 2, 0, 1, 3, 0, 2, 4, 1, 3, 5, 2}, []byte{0, 5, 1, 4, 2})

	f.Fuzz(func(t *testing.T, graphBytes, permBytes []byte) {
		g := decodeFuzzGraph(graphBytes, 7, []string{"C", "N", "O", "S", "P"}, []string{"", "1", "2"})
		if g == nil {
			t.Skip("undecodable byte stream")
		}
		code := CanonicalCode(g)
		if code == "" {
			t.Fatalf("empty canonical code for %v", g)
		}

		perm := decodeFuzzPerm(permBytes, g.NumNodes())
		pg, err := g.Permute(perm)
		if err != nil {
			t.Fatalf("permute %v: %v", perm, err)
		}
		if pcode := CanonicalCode(pg); pcode != code {
			t.Fatalf("canonical code not permutation-invariant:\n perm %v\n  got %q\n want %q\n graph %v", perm, pcode, code, g)
		}

		// The code is a faithful serialization: decoding it yields a graph
		// with the same canonical code (hence isomorphic to g).
		dfs := MinDFSCode(g)
		back := CodeGraph(dfs)
		if bcode := CanonicalCode(back); bcode != code {
			t.Fatalf("decode(encode(g)) changed the code: %q vs %q", bcode, code)
		}
		if !SubgraphIsomorphic(g, back) || !SubgraphIsomorphic(back, g) {
			t.Fatalf("decoded graph not isomorphic to the original: %v vs %v", g, back)
		}
	})
}

// FuzzCanonicalCodeInjective checks the other half of the canonical-form
// contract, which permutation invariance cannot: two graphs share a code
// exactly when they are isomorphic (equal sizes and subgraph-isomorphic both
// ways). The label alphabets include the code's delimiters and its escape
// byte, in node and in edge labels, so an encoding whose tuple boundaries a
// label can imitate fails here.
func FuzzCanonicalCodeInjective(f *testing.F) {
	// Committed seeds: the two collisions of an unescaped encoding
	// (A,B–C vs A–B,C; A–[x],[y]–B vs A–[x]–"[y],B"), a backslash pair, and
	// an isomorphic pair drawn in different node orders.
	f.Add([]byte{0, 3, 2, 0, 0}, []byte{0, 0, 4, 0, 0})
	f.Add([]byte{0, 0, 1, 0, 3}, []byte{0, 0, 5, 0, 1})
	f.Add([]byte{0, 6, 4, 0, 0}, []byte{0, 7, 2, 0, 0})
	f.Add([]byte{1, 0, 1, 2, 0, 1, 1, 2}, []byte{1, 2, 1, 0, 0, 2, 1, 1})

	labels := []string{"A", "B", "C", "A,B", "B,C", "[y],B", `A\`, `A,B\`}
	bonds := []string{"", "x", "1", "x],[y", `\`}
	f.Fuzz(func(t *testing.T, aBytes, bBytes []byte) {
		a := decodeFuzzGraph(aBytes, 5, labels, bonds)
		b := decodeFuzzGraph(bBytes, 5, labels, bonds)
		if a == nil || b == nil {
			t.Skip("undecodable byte stream")
		}
		same := CanonicalCode(a) == CanonicalCode(b)
		iso := a.NumNodes() == b.NumNodes() && a.NumEdges() == b.NumEdges() &&
			SubgraphIsomorphic(a, b) && SubgraphIsomorphic(b, a)
		if same != iso {
			t.Fatalf("equal codes = %v but isomorphic = %v:\n a %v: %q\n b %v: %q",
				same, iso, a, CanonicalCode(a), b, CanonicalCode(b))
		}
	})
}
