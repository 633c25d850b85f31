// Package simverify provides MCCS-based subgraph-similarity verification:
// VF2 extended to decide whether a data graph contains a connected subgraph
// of the query of a given size (the SimVerify procedure of the paper's
// Algorithm 5). The paper deliberately uses this simple verifier [3] and
// notes it could be swapped for a more sophisticated one; PRAGUE's advantage
// comes from pruning candidates before verification ever runs.
package simverify

import (
	"prague/internal/graph"
)

// Verifier verifies similarity matches for one fixed query graph, caching
// the query's connected-subgraph classes per level so repeated verifications
// (across candidates and levels) do not re-enumerate them.
type Verifier struct {
	q      *graph.Graph
	levels [][]*graph.Graph // level k -> isomorphism classes of k-edge connected subgraphs
}

// NewVerifier prepares a verifier for query q. q must be connected with at
// least one edge.
func NewVerifier(q *graph.Graph) *Verifier {
	return &Verifier{q: q, levels: graph.ConnectedEdgeSubgraphs(q)}
}

// Query returns the query graph the verifier was built for.
func (v *Verifier) Query() *graph.Graph { return v.q }

// LevelFragments returns the isomorphism classes of connected k-edge
// subgraphs of the query.
func (v *Verifier) LevelFragments(k int) []*graph.Graph {
	if k < 1 || k >= len(v.levels) {
		return nil
	}
	return v.levels[k]
}

// MatchesAtLevel reports whether g contains some connected k-edge subgraph
// of the query, i.e. whether dist(q, g) ≤ |q| - k.
func (v *Verifier) MatchesAtLevel(g *graph.Graph, k int) bool {
	if k <= 0 {
		return true
	}
	return ContainsAny(v.LevelFragments(k), g)
}

// Distance returns the exact subgraph distance dist(q, g) (Definition 2),
// capped at |q| (no common edge at all).
func (v *Verifier) Distance(g *graph.Graph) int {
	for k := v.q.Size(); k >= 1; k-- {
		if v.MatchesAtLevel(g, k) {
			return v.q.Size() - k
		}
	}
	return v.q.Size()
}

// WithinDistance reports whether dist(q, g) ≤ sigma, short-circuiting at the
// highest satisfying level.
func (v *Verifier) WithinDistance(g *graph.Graph, sigma int) bool {
	if sigma >= v.q.Size() {
		return true
	}
	return v.MatchesAtLevel(g, v.q.Size()-sigma)
}

// ContainsAny reports whether any of the given fragments embeds in g; used
// when the caller already has the fragment classes (e.g. from SPIG levels).
func ContainsAny(frags []*graph.Graph, g *graph.Graph) bool {
	for _, f := range frags {
		if graph.SubgraphIsomorphic(f, g) {
			return true
		}
	}
	return false
}
