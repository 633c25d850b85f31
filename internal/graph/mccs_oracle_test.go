package graph

import (
	"fmt"
	"math/bits"
	"testing"
)

// bruteMCCS returns |mccs(g, q)| without VF2 and without
// ConnectedEdgeSubgraphs: it walks the subsets of q's edges by bitmask,
// largest first, keeps the connected ones (union-find over the subset's
// endpoints), builds each as a graph of its own, and asks bruteOracle
// whether it embeds in g.
func bruteMCCS(q, g *Graph) int {
	edges := q.Edges()
	for k := len(edges); k >= 1; k-- {
		for mask := 1; mask < 1<<len(edges); mask++ {
			if bits.OnesCount(uint(mask)) == k && bruteSubsetEmbeds(q, g, mask) {
				return k
			}
		}
	}
	return 0
}

// bruteSubsetEmbeds reports whether the edges of q selected by mask form a
// connected subgraph that embeds in g.
func bruteSubsetEmbeds(q, g *Graph, mask int) bool {
	parent := map[int]int{}
	var find func(v int) int
	find = func(v int) int {
		if parent[v] != v {
			parent[v] = find(parent[v])
		}
		return parent[v]
	}
	for i, e := range q.Edges() {
		if mask&(1<<i) == 0 {
			continue
		}
		for _, v := range [2]int{e.U, e.V} {
			if _, ok := parent[v]; !ok {
				parent[v] = v
			}
		}
		parent[find(e.U)] = find(e.V)
	}
	root := -1
	for v := range parent {
		if r := find(v); root < 0 {
			root = r
		} else if r != root {
			return false
		}
	}
	sub := New(-1)
	local := map[int]int{}
	node := func(v int) int {
		if id, ok := local[v]; ok {
			return id
		}
		local[v] = sub.AddNode(q.Label(v))
		return local[v]
	}
	for i, e := range q.Edges() {
		if mask&(1<<i) != 0 {
			if err := sub.AddLabeledEdge(node(e.U), node(e.V), q.EdgeLabelAt(i)); err != nil {
				panic(err)
			}
		}
	}
	return newBruteOracle(sub, g).count() > 0
}

// TestMCCSAgainstBruteForce holds MCCSSize, with and without its early-exit
// bound minK, and SubgraphDistance to bruteMCCS. It runs exhaustively: every query shape
// of at most six nodes against every data shape of the VF2 oracle table,
// under one to three node labels, with and without edge labels.
func TestMCCSAgainstBruteForce(t *testing.T) {
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
	nodes := []labeling{{"C", pick("C")}, {"CN", pick("C", "N")}, {"CNO", pick("C", "N", "O")}}
	edges := []labeling{{"unlabeled", pick("")}, {"mixed", pick("", "1", "2")}}
	type named struct {
		g    *Graph
		name string
	}
	build := func(shapes []oracleShape) (out []named) {
		for _, s := range shapes {
			for _, nl := range nodes {
				for _, el := range edges {
					out = append(out, named{s.build(nl.of, el.of), s.name + "/" + nl.name + "/" + el.name})
				}
			}
		}
		return out
	}
	partial := 0
	for _, q := range build(queryShapes) {
		if q.g.NumNodes() > 6 {
			t.Fatalf("%s: query above six nodes", q.name)
		}
		for _, g := range build(dataShapes) {
			want := bruteMCCS(q.g, g.g)
			where := fmt.Sprintf("%s in %s (brute force: %d of %d edges)", q.name, g.name, want, q.g.Size())
			// The early exit's boundary: a bound at the answer still finds
			// it, one above gives up.
			for _, c := range [][2]int{{0, want}, {want, want}, {want + 1, 0}} {
				if got := MCCSSize(q.g, g.g, c[0]); got != c[1] {
					t.Fatalf("MCCSSize(minK=%d) = %d, want %d; %s", c[0], got, c[1], where)
				}
			}
			if got := SubgraphDistance(q.g, g.g); got != q.g.Size()-want {
				t.Fatalf("SubgraphDistance = %d; %s", got, where)
			}
			if 0 < want && want < q.g.Size() {
				partial++
			}
		}
	}
	if partial == 0 {
		t.Fatal("vacuous table: no pair with a partial MCCS")
	}
	t.Logf("%d pairs with a partial MCCS", partial)
}
