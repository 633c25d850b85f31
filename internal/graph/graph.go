// Package graph provides the labeled-graph substrate used throughout the
// PRAGUE reproduction: undirected, connected, node-labeled graphs in the style
// of chemical compound databases, together with the canonical code, subgraph
// isomorphism, and maximum connected common subgraph (MCCS) machinery the
// paper builds on.
//
// Terminology follows the paper: a "data graph" is a member of the database
// D, a "fragment" is a connected subgraph of some data graph, and a "query
// fragment" is the partially formulated visual query.
package graph

import (
	"fmt"
	"strings"
)

// Graph is an undirected graph with labeled nodes and optionally labeled
// edges (the paper's model allows both; its method is presented
// node-labeled). The zero value is an empty graph ready for use. Nodes are
// dense integers 0..N-1.
//
// Graphs are not safe for concurrent mutation; concurrent reads are fine.
type Graph struct {
	// ID is the database identifier of a data graph (unused for queries).
	ID int

	labels []uint32 // interned node labels (see intern.go)
	adj    [][]int
	edges  []Edge
	// edgeLabels is aligned with edges ("" = unlabeled) once any edge
	// carries a label, and nil while none does: an unlabeled graph stores
	// no labels and answers every label query without a scan.
	edgeLabels []string
}

// Edge is an undirected edge between node indices U and V, normalized so that
// U < V.
type Edge struct {
	U, V int
}

func normEdge(u, v int) Edge {
	if u > v {
		u, v = v, u
	}
	return Edge{u, v}
}

// New returns an empty graph with the given database identifier.
func New(id int) *Graph {
	return &Graph{ID: id}
}

// AddNode appends a node with the given label and returns its index.
func (g *Graph) AddNode(label string) int { return g.AddNodeID(InternLabel(label)) }

// AddNodeID is AddNode for a label already interned with InternLabel.
func (g *Graph) AddNodeID(label uint32) int {
	g.labels = append(g.labels, label)
	g.adj = append(g.adj, nil)
	return len(g.labels) - 1
}

// AddEdge inserts the undirected, unlabeled edge {u, v}. It returns an
// error for self-loops, duplicate edges, or out-of-range endpoints.
func (g *Graph) AddEdge(u, v int) error {
	return g.AddLabeledEdge(u, v, "")
}

// AddLabeledEdge inserts the undirected edge {u, v} carrying an edge label
// (ψ in the paper's model — e.g. a bond type). The empty label means
// unlabeled; labeled and unlabeled edges may coexist.
func (g *Graph) AddLabeledEdge(u, v int, label string) error {
	if u == v {
		return fmt.Errorf("graph: self-loop on node %d", u)
	}
	if u < 0 || v < 0 || u >= len(g.labels) || v >= len(g.labels) {
		return fmt.Errorf("graph: edge {%d,%d} out of range (n=%d)", u, v, len(g.labels))
	}
	if g.HasEdge(u, v) {
		return fmt.Errorf("graph: duplicate edge {%d,%d}", u, v)
	}
	g.adj[u] = append(g.adj[u], v)
	g.adj[v] = append(g.adj[v], u)
	g.edges = append(g.edges, normEdge(u, v))
	if label != "" && g.edgeLabels == nil {
		// First labeled edge: the edges before it read "".
		g.edgeLabels = make([]string, len(g.edges)-1, len(g.edges))
	}
	if g.edgeLabels != nil {
		g.edgeLabels = append(g.edgeLabels, label)
	}
	return nil
}

// MustAddEdge is AddEdge for programmatic construction where the input is
// known valid; it panics on error.
func (g *Graph) MustAddEdge(u, v int) {
	if err := g.AddEdge(u, v); err != nil {
		panic(err)
	}
}

// EdgeLabel returns the label of the undirected edge {u, v} ("" for
// unlabeled or absent edges).
func (g *Graph) EdgeLabel(u, v int) string { return g.edgeLabelOf(normEdge(u, v)) }

// EdgeLabelAt returns the label of the i-th edge in Edges order.
func (g *Graph) EdgeLabelAt(i int) string {
	if g.edgeLabels == nil {
		return ""
	}
	return g.edgeLabels[i]
}

// edgeLabeled reports whether any edge of g carries a label.
func (g *Graph) edgeLabeled() bool { return g.edgeLabels != nil }

// NumNodes returns the number of nodes.
func (g *Graph) NumNodes() int { return len(g.labels) }

// NumEdges returns the number of edges. The paper defines |G| as the edge
// count; Size is an alias for that convention.
func (g *Graph) NumEdges() int { return len(g.edges) }

// Size returns |G| = number of edges, following the paper's convention.
func (g *Graph) Size() int { return len(g.edges) }

// Label returns the label of node v.
func (g *Graph) Label(v int) string { return LabelName(g.labels[v]) }

// Neighbors returns the adjacency list of node v. The caller must not modify
// it.
func (g *Graph) Neighbors(v int) []int { return g.adj[v] }

// Degree returns the degree of node v.
func (g *Graph) Degree(v int) int { return len(g.adj[v]) }

// Edges returns the edge list in insertion order. The caller must not modify
// it.
func (g *Graph) Edges() []Edge { return g.edges }

// HasEdge reports whether the undirected edge {u, v} is present.
func (g *Graph) HasEdge(u, v int) bool {
	if u < 0 || v < 0 || u >= len(g.labels) || v >= len(g.labels) {
		return false
	}
	// Scan the smaller adjacency list.
	a, b := u, v
	if len(g.adj[a]) > len(g.adj[b]) {
		a, b = b, a
	}
	for _, w := range g.adj[a] {
		if w == b {
			return true
		}
	}
	return false
}

// Clone returns a deep copy of g.
func (g *Graph) Clone() *Graph {
	c := &Graph{ID: g.ID}
	c.labels = append([]uint32(nil), g.labels...)
	c.adj = make([][]int, len(g.adj))
	for i, a := range g.adj {
		c.adj[i] = append([]int(nil), a...)
	}
	c.edges = append([]Edge(nil), g.edges...)
	c.edgeLabels = append([]string(nil), g.edgeLabels...)
	return c
}

// Connected reports whether g is connected and non-empty. The paper assumes
// all graphs (data and query) are connected with at least one edge; the empty
// graph is reported as not connected.
func (g *Graph) Connected() bool {
	n := len(g.labels)
	if n == 0 {
		return false
	}
	seen := make([]bool, n)
	stack := []int{0}
	seen[0] = true
	count := 1
	for len(stack) > 0 {
		v := stack[len(stack)-1]
		stack = stack[:len(stack)-1]
		for _, w := range g.adj[v] {
			if !seen[w] {
				seen[w] = true
				count++
				stack = append(stack, w)
			}
		}
	}
	return count == n
}

// DeleteEdge returns a copy of g with the undirected edge {u, v} removed and
// any node left isolated by the removal dropped (the paper's query graphs
// never contain dangling nodes). It returns an error if the edge does not
// exist. The result may be disconnected; callers that require connectivity
// must check Connected.
func (g *Graph) DeleteEdge(u, v int) (*Graph, error) {
	if !g.HasEdge(u, v) {
		return nil, fmt.Errorf("graph: edge {%d,%d} not present", u, v)
	}
	e := normEdge(u, v)
	keep := make([]Edge, 0, len(g.edges)-1)
	for _, f := range g.edges {
		if f != e {
			keep = append(keep, f)
		}
	}
	sub, _ := g.EdgeInducedSubgraph(keep)
	return sub, nil
}

// edgeLabelOf returns the label of a normalized edge ("" if absent).
func (g *Graph) edgeLabelOf(e Edge) string {
	if g.edgeLabels == nil {
		return ""
	}
	for i, f := range g.edges {
		if f == e {
			return g.edgeLabels[i]
		}
	}
	return ""
}

// EdgeInducedSubgraph returns the subgraph of g induced by the given edges:
// the nodes are exactly the endpoints of those edges (isolated nodes are
// dropped), relabeled densely. The second return value maps new node index ->
// old node index.
func (g *Graph) EdgeInducedSubgraph(edges []Edge) (*Graph, []int) {
	remap := make(map[int]int)
	var back []int
	sub := New(g.ID)
	nodeOf := func(old int) int {
		if nv, ok := remap[old]; ok {
			return nv
		}
		nv := sub.AddNodeID(g.labels[old])
		remap[old] = nv
		back = append(back, old)
		return nv
	}
	for _, e := range edges {
		u, v := nodeOf(e.U), nodeOf(e.V)
		if err := sub.AddLabeledEdge(u, v, g.edgeLabelOf(e)); err != nil {
			panic(fmt.Sprintf("graph: EdgeInducedSubgraph given invalid edge set: %v", err))
		}
	}
	return sub, back
}

// EdgeIndex returns the position of the undirected edge {u, v} in Edges, or
// -1 if absent.
func (g *Graph) EdgeIndex(u, v int) int {
	e := normEdge(u, v)
	for i, f := range g.edges {
		if f == e {
			return i
		}
	}
	return -1
}

// LabelPair returns the pair of node labels of edge e in canonical
// (lexicographically sorted) order.
func (g *Graph) LabelPair(e Edge) (string, string) {
	a, b := g.Label(e.U), g.Label(e.V)
	if a > b {
		a, b = b, a
	}
	return a, b
}

// String renders a compact human-readable form: "C0-C1, C1-O2" style.
func (g *Graph) String() string {
	var b strings.Builder
	for i, e := range g.edges {
		if i > 0 {
			b.WriteString(", ")
		}
		fmt.Fprintf(&b, "%s%d-%s%d", g.Label(e.U), e.U, g.Label(e.V), e.V)
	}
	if len(g.edges) == 0 {
		for i := range g.labels {
			if i > 0 {
				b.WriteString(", ")
			}
			fmt.Fprintf(&b, "%s%d", g.Label(i), i)
		}
	}
	return b.String()
}

// Permute returns a copy of g with node i renamed to perm[i]. perm must be a
// permutation of 0..n-1. Used by tests to check isomorphism invariance.
func (g *Graph) Permute(perm []int) (*Graph, error) {
	n := len(g.labels)
	if len(perm) != n {
		return nil, fmt.Errorf("graph: permutation length %d != %d nodes", len(perm), n)
	}
	seen := make([]bool, n)
	for _, p := range perm {
		if p < 0 || p >= n || seen[p] {
			return nil, fmt.Errorf("graph: invalid permutation %v", perm)
		}
		seen[p] = true
	}
	p := New(g.ID)
	p.labels = make([]uint32, n)
	p.adj = make([][]int, n)
	for i, l := range g.labels {
		p.labels[perm[i]] = l
	}
	for _, e := range g.edges {
		u, v := perm[e.U], perm[e.V]
		p.adj[u] = append(p.adj[u], v)
		p.adj[v] = append(p.adj[v], u)
		p.edges = append(p.edges, normEdge(u, v))
	}
	p.edgeLabels = append([]string(nil), g.edgeLabels...)
	return p, nil
}
