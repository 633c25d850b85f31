// Package query models the visually formulated query graph: an evolving,
// connected, node-labeled graph whose edges carry the formulation step label
// ℓ assigned in drawing order ("the ℓ-th edge constructed by a user is
// denoted as eℓ", paper §V). Edge deletion — the paper's modification
// primitive — is supported as long as the query stays connected.
package query

import (
	"fmt"
	"slices"
	"sort"

	"prague/internal/graph"
)

// Edge is one query edge: stable endpoint node ids, the formulation step
// label, and an optional edge label (bond type; "" = unlabeled).
type Edge struct {
	A, B  int
	Step  int
	Label string
}

// Query is the evolving visual query fragment. Node ids are stable across
// edge deletions (they are canvas object identities, never reused).
type Query struct {
	// nodeLabels holds each node's label interned once, when it is set, so
	// materializing a fragment appends ids without hashing a string.
	nodeLabels map[int]uint32
	nextNode   int
	edges      map[int]Edge // step label -> edge
	nextStep   int
}

// New returns an empty query.
func New() *Query {
	return &Query{nodeLabels: map[int]uint32{}, edges: map[int]Edge{}, nextStep: 1, nextNode: 0}
}

// AddNode drops a node with the given label onto the canvas and returns its
// stable id.
func (q *Query) AddNode(label string) int {
	id := q.nextNode
	q.nextNode++
	q.nodeLabels[id] = graph.InternLabel(label)
	return id
}

// AddEdge draws an unlabeled edge between two existing nodes and returns
// its step label ℓ.
func (q *Query) AddEdge(u, v int) (int, error) {
	return q.AddLabeledEdge(u, v, "")
}

// AddLabeledEdge draws an edge carrying an edge label (e.g. a bond type)
// and returns its step label ℓ.
func (q *Query) AddLabeledEdge(u, v int, label string) (int, error) {
	if _, ok := q.nodeLabels[u]; !ok {
		return 0, fmt.Errorf("query: node %d does not exist", u)
	}
	if _, ok := q.nodeLabels[v]; !ok {
		return 0, fmt.Errorf("query: node %d does not exist", v)
	}
	if u == v {
		return 0, fmt.Errorf("query: self-loop on node %d", u)
	}
	for _, e := range q.edges {
		if (e.A == u && e.B == v) || (e.A == v && e.B == u) {
			return 0, fmt.Errorf("query: edge {%d,%d} already drawn at step %d", u, v, e.Step)
		}
	}
	// The query must stay connected at all times (paper assumption): the new
	// edge must touch the existing fragment unless it is the first edge.
	if len(q.edges) > 0 {
		touched := false
		for _, e := range q.edges {
			if e.A == u || e.B == u || e.A == v || e.B == v {
				touched = true
				break
			}
		}
		if !touched {
			return 0, fmt.Errorf("query: edge {%d,%d} would disconnect the query fragment", u, v)
		}
	}
	step := q.nextStep
	q.nextStep++
	q.edges[step] = Edge{A: u, B: v, Step: step, Label: label}
	return step, nil
}

// DeleteEdge removes the edge drawn at the given step. It returns an error if
// the edge does not exist or if removing it would disconnect the remaining
// query fragment (the paper requires the modified query graph to stay
// connected at all times).
func (q *Query) DeleteEdge(step int) error {
	if _, ok := q.edges[step]; !ok {
		return fmt.Errorf("query: no edge with step label %d", step)
	}
	if len(q.edges) > 1 {
		rest := make([]int, 0, len(q.edges)-1)
		for s := range q.edges {
			if s != step {
				rest = append(rest, s)
			}
		}
		if _, connected := q.FragmentOf(rest); !connected {
			return fmt.Errorf("query: deleting e%d would disconnect the query", step)
		}
	}
	delete(q.edges, step)
	return nil
}

// DeleteEdges removes several edges at once. Unlike repeated DeleteEdge
// calls, only the *final* state must be connected — intermediate states may
// pass through disconnection (the paper notes multi-edge deletion is a
// trivial extension of the single-edge case). It is all-or-nothing.
func (q *Query) DeleteEdges(steps []int) error {
	if len(steps) == 0 {
		return nil
	}
	seen := map[int]bool{}
	for _, s := range steps {
		if _, ok := q.edges[s]; !ok {
			return fmt.Errorf("query: no edge with step label %d", s)
		}
		if seen[s] {
			return fmt.Errorf("query: duplicate step %d in deletion", s)
		}
		seen[s] = true
	}
	if len(q.edges) > len(steps) {
		var rest []int
		for s := range q.edges {
			if !seen[s] {
				rest = append(rest, s)
			}
		}
		if !q.StepsConnected(rest) {
			return fmt.Errorf("query: deleting %v would disconnect the query", steps)
		}
	}
	for _, s := range steps {
		delete(q.edges, s)
	}
	return nil
}

// RelabelNode changes the label of a canvas node. Per the paper's §VII
// footnote, relabeling is expressed as deleting the node's incident edges
// and re-inserting them against the relabeled node: the incident edges are
// assigned fresh step labels (returned in oldSteps/newSteps order), so the
// caller can update per-edge state (SPIGs) accordingly.
func (q *Query) RelabelNode(node int, label string) (oldSteps, newSteps []int, err error) {
	old, ok := q.nodeLabels[node]
	if !ok {
		return nil, nil, fmt.Errorf("query: node %d does not exist", node)
	}
	id := graph.InternLabel(label)
	if old == id {
		return nil, nil, nil
	}
	q.nodeLabels[node] = id
	var incident []Edge
	for s, e := range q.edges {
		if e.A == node || e.B == node {
			oldSteps = append(oldSteps, s)
			incident = append(incident, e)
		}
	}
	sort.Ints(oldSteps)
	sort.Slice(incident, func(i, j int) bool { return incident[i].Step < incident[j].Step })
	for _, s := range oldSteps {
		delete(q.edges, s)
	}
	for _, e := range incident {
		step := q.nextStep
		q.nextStep++
		q.edges[step] = Edge{A: e.A, B: e.B, Step: step, Label: e.Label}
		newSteps = append(newSteps, step)
	}
	return oldSteps, newSteps, nil
}

// CanDelete reports whether the edge at the given step could be deleted
// without disconnecting the query.
func (q *Query) CanDelete(step int) bool {
	if _, ok := q.edges[step]; !ok {
		return false
	}
	if len(q.edges) == 1 {
		return true
	}
	rest := make([]int, 0, len(q.edges)-1)
	for s := range q.edges {
		if s != step {
			rest = append(rest, s)
		}
	}
	return q.StepsConnected(rest)
}

// Size returns |q| = number of edges.
func (q *Query) Size() int { return len(q.edges) }

// Steps returns the step labels of the current edges in ascending order.
func (q *Query) Steps() []int {
	steps := make([]int, 0, len(q.edges))
	for s := range q.edges {
		steps = append(steps, s)
	}
	sort.Ints(steps)
	return steps
}

// LastStep returns the largest step label currently in the query (the "new
// edge"), or 0 if the query has no edges.
func (q *Query) LastStep() int {
	last := 0
	for s := range q.edges {
		if s > last {
			last = s
		}
	}
	return last
}

// Edge returns the edge with the given step label.
func (q *Query) Edge(step int) (Edge, bool) {
	e, ok := q.edges[step]
	return e, ok
}

// NodeLabel returns the label of the node with the given stable id.
func (q *Query) NodeLabel(id int) string {
	l, ok := q.nodeLabels[id]
	if !ok {
		return ""
	}
	return graph.LabelName(l)
}

// Graph materializes the current query fragment as a dense graph (isolated
// canvas nodes omitted) together with the step labels of its edges in the
// dense graph's edge order.
func (q *Query) Graph() (*graph.Graph, []int) {
	steps := q.Steps()
	var buf [maxStackNodes]int
	g, _, ok := q.fragment(steps, buf[:0])
	if !ok {
		return nil, nil
	}
	return g, steps
}

// FragmentOf materializes the edge-induced subgraph given by the step labels
// and reports whether it is connected. A disconnected set is not
// materialized. Unknown step labels are an error expressed as (nil, false).
func (q *Query) FragmentOf(steps []int) (*graph.Graph, bool) {
	if !q.StepsConnected(steps) {
		return nil, false
	}
	var buf [maxStackNodes]int
	g, _, ok := q.fragment(steps, buf[:0])
	return g, ok
}

// FragmentWithNodes is FragmentOf plus the mapping from the fragment's dense
// node indices back to the stable canvas node ids (used to highlight MCCS
// matches on the canvas).
func (q *Query) FragmentWithNodes(steps []int) (*graph.Graph, []int, bool) {
	if !q.StepsConnected(steps) {
		return nil, nil, false
	}
	g, stable, ok := q.fragment(steps, make([]int, 0, 2*len(steps)))
	if !ok {
		return nil, nil, false
	}
	return g, stable, true
}

// StepsConnected reports whether the edges with the given step labels form
// one connected fragment, without building it: a union-find over the
// edges' endpoints, on stack arrays for up to maxStackNodes endpoints. The
// empty set and sets naming an unknown step are not connected.
func (q *Query) StepsConnected(steps []int) bool {
	if len(steps) == 0 {
		return false
	}
	var idBuf, parentBuf [maxStackNodes]int
	ids, parent := idBuf[:0], parentBuf[:0]
	if 2*len(steps) > maxStackNodes {
		ids, parent = make([]int, 0, 2*len(steps)), make([]int, 0, 2*len(steps))
	}
	components := 0
	for _, s := range steps {
		e, ok := q.edges[s]
		if !ok {
			return false
		}
		var ends [2]int
		for i, id := range [2]int{e.A, e.B} {
			ends[i] = slices.Index(ids, id)
			if ends[i] < 0 {
				ends[i] = len(ids)
				ids = append(ids, id)
				parent = append(parent, ends[i])
				components++
			}
		}
		if a, b := findRoot(parent, ends[0]), findRoot(parent, ends[1]); a != b {
			parent[a] = b
			components--
		}
	}
	return components == 1
}

// maxStackNodes bounds the endpoint count StepsConnected and fragment keep
// in stack arrays; query fragments are a dozen edges or so.
const maxStackNodes = 64

// findRoot returns the union-find root of x, halving the path on the way.
func findRoot(parent []int, x int) int {
	for parent[x] != x {
		parent[x] = parent[parent[x]]
		x = parent[x]
	}
	return x
}

// fragment materializes the edge-induced subgraph of the given steps. Dense
// node indices are assigned in order of first appearance over the steps in
// ascending order, so equal step sets always yield identical graphs. The
// stable ids of the dense nodes are appended to stable, in dense order, and
// returned; ok is false for an unknown step or an empty set.
func (q *Query) fragment(steps []int, stable []int) (*graph.Graph, []int, bool) {
	if len(steps) == 0 {
		return nil, nil, false
	}
	sorted := steps
	if !slices.IsSorted(steps) {
		sorted = slices.Sorted(slices.Values(steps))
	}
	g := graph.New(-1)
	nodeOf := func(id int) int {
		if v := slices.Index(stable, id); v >= 0 {
			return v
		}
		stable = append(stable, id)
		return g.AddNodeID(q.nodeLabels[id])
	}
	for _, s := range sorted {
		e, ok := q.edges[s]
		if !ok {
			return nil, nil, false
		}
		if err := g.AddLabeledEdge(nodeOf(e.A), nodeOf(e.B), e.Label); err != nil {
			return nil, nil, false
		}
	}
	return g, stable, true
}

// AdjacentSteps returns, for each current edge step, the steps of edges
// sharing an endpoint with it.
func (q *Query) AdjacentSteps() map[int][]int {
	byNode := map[int][]int{}
	for s, e := range q.edges {
		byNode[e.A] = append(byNode[e.A], s)
		byNode[e.B] = append(byNode[e.B], s)
	}
	adj := map[int][]int{}
	for s, e := range q.edges {
		seen := map[int]bool{s: true}
		for _, n := range [2]int{e.A, e.B} {
			for _, t := range byNode[n] {
				if !seen[t] {
					seen[t] = true
					adj[s] = append(adj[s], t)
				}
			}
		}
		sort.Ints(adj[s])
	}
	return adj
}

// Clone returns a deep copy of the query.
func (q *Query) Clone() *Query {
	c := New()
	c.nextNode = q.nextNode
	c.nextStep = q.nextStep
	for id, l := range q.nodeLabels {
		c.nodeLabels[id] = l
	}
	for s, e := range q.edges {
		c.edges[s] = e
	}
	return c
}
