package core

import (
	"fmt"

	"prague/internal/graph"
	"prague/internal/intset"
)

// Match explains how a data graph matches the current query: which query
// edges the maximum connected common subgraph covers, which are missing, and
// where the common part sits inside the data graph. This is the information
// a visual frontend needs to "highlight the MCCS in the matched data graphs"
// (paper §IV-A), the reason the paper picks MCCS over edit distance.
type Match struct {
	GraphID  int
	Distance int
	// MatchedSteps are the step labels of the query edges covered by the
	// embedded common subgraph; MissingSteps are the rest (what the GUI
	// renders as dashed/missing).
	MatchedSteps []int
	MissingSteps []int
	// NodeMap maps stable query node ids (of the matched part) to node
	// indices in the data graph. It is an embedding, not a canonical one:
	// the one graph.FindEmbedding meets first, so a change to the search's
	// candidate order may change it (tests check that it is valid, not
	// which one it is).
	NodeMap map[int]int
}

// Explain computes the match explanation of one data graph against the
// current query, searching from the most similar level downward. The graph
// must be within the engine's σ (or contain the query exactly); otherwise an
// error is returned.
func (e *Engine) Explain(graphID int) (*Match, error) {
	snap := e.repin()
	if graphID < 0 || graphID >= snap.NumGraphs() || snap.Graph(graphID) == nil {
		// Out of range or a tombstoned slot: a deleted graph has no match.
		return nil, fmt.Errorf("core: no data graph %d: %w", graphID, ErrGraphNotFound)
	}
	n := e.q.Size()
	if n == 0 {
		return nil, fmt.Errorf("core: explain: %w", ErrEmptyQuery)
	}
	g := snap.Graph(graphID)
	lo := n - e.sigma
	if lo < 1 {
		lo = 1
	}
	allSteps := e.q.Steps()
	for i := n; i >= lo; i-- {
		for _, l := range e.spigs.Labels() {
			s := e.spigs.Spig(l)
			for _, v := range s.Level(i) {
				if len(v.Reps) == 0 {
					continue
				}
				rep := e.spigs.Steps(v.Reps[0])
				frag, stable, ok := e.q.FragmentWithNodes(rep)
				if !ok {
					continue
				}
				emb := graph.FindEmbedding(frag, g)
				if emb == nil {
					continue // isomorphic reps all fail together; next class
				}
				nodeMap := make(map[int]int, len(stable))
				for fragNode, stableID := range stable {
					nodeMap[stableID] = emb[fragNode]
				}
				return &Match{
					GraphID:      graphID,
					Distance:     n - i,
					MatchedSteps: rep,
					MissingSteps: intset.Diff(allSteps, rep),
					NodeMap:      nodeMap,
				}, nil
			}
		}
	}
	if e.sigma >= n {
		// Nothing in common, yet still within σ: distance is exactly |q|
		// (Definition 2 with δ = 0) and there is nothing to highlight.
		return &Match{
			GraphID:      graphID,
			Distance:     n,
			MissingSteps: intset.Clone(allSteps),
			NodeMap:      map[int]int{},
		}, nil
	}
	return nil, fmt.Errorf("core: graph %d is not within distance %d of the query", graphID, e.sigma)
}
