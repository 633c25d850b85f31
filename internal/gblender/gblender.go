// Package gblender reimplements the paper's predecessor system GBLENDER [6]
// as the containment-query baseline of Figure 9(a): a blended engine over the
// same action-aware indexes that keeps only the most recent candidate set Rq
// and supports exact (containment) queries only (paper §I-A, §II). Its other
// limitation, replaying the whole formulation history on a modification, is
// not modelled: no experiment modifies a GBLENDER session.
package gblender

import (
	"fmt"
	"time"

	"prague/internal/graph"
	"prague/internal/index"
	"prague/internal/intset"
	"prague/internal/query"
)

// Engine is a GBLENDER session.
type Engine struct {
	db  []*graph.Graph
	idx *index.Set

	q  *query.Query
	rq []int

	stats Stats
}

// Stats holds session measurements.
type Stats struct {
	RunTime time.Duration
}

// New creates a GBLENDER engine over the database and indexes.
func New(db []*graph.Graph, idx *index.Set) (*Engine, error) {
	for i, g := range db {
		if g.ID != i {
			return nil, fmt.Errorf("gblender: data graph at position %d has id %d", i, g.ID)
		}
	}
	return &Engine{db: db, idx: idx, q: query.New()}, nil
}

// Query exposes the evolving query.
func (e *Engine) Query() *query.Query { return e.q }

// Stats returns the accumulated measurements.
func (e *Engine) Stats() *Stats { return &e.stats }

// AddNode drops a labeled node on the canvas.
func (e *Engine) AddNode(label string) int { return e.q.AddNode(label) }

// AddEdge draws an edge and refines Rq by intersecting the previous
// candidates with the identifiers of graphs containing the new fragment's
// indexed (frequent or DIF) pieces — GBLENDER's "most recent Rq only"
// strategy.
func (e *Engine) AddEdge(u, v int) (int, error) {
	return e.AddLabeledEdge(u, v, "")
}

// AddLabeledEdge is AddEdge for an edge carrying an edge label.
func (e *Engine) AddLabeledEdge(u, v int, label string) (int, error) {
	step, err := e.q.AddLabeledEdge(u, v, label)
	if err != nil {
		return 0, err
	}
	qg, _ := e.q.Graph()
	ids := e.fragmentCandidates(qg)
	if e.q.Size() == 1 {
		e.rq = ids
	} else {
		e.rq = intset.Intersect(e.rq, ids)
	}
	return step, nil
}

// fragmentCandidates computes the FSG ids of graphs that can contain frag:
// directly for indexed fragments, otherwise by recursively decomposing into
// maximal connected subgraphs until indexed pieces are found and
// intersecting their id lists.
func (e *Engine) fragmentCandidates(frag *graph.Graph) []int {
	memo := map[string][]int{}
	var rec func(g *graph.Graph) ([]int, bool)
	rec = func(g *graph.Graph) ([]int, bool) {
		code := graph.CanonicalCode(g)
		if ids, ok := memo[code]; ok {
			return ids, true
		}
		kind, id := e.idx.Lookup(code)
		switch kind {
		case index.KindFrequent:
			ids := e.idx.A2F.FSGIds(id)
			memo[code] = ids
			return ids, true
		case index.KindDIF:
			ids := e.idx.A2I.FSGIds(id)
			memo[code] = ids
			return ids, true
		}
		if g.Size() == 1 {
			// Unindexed single edge: label pair absent from the index
			// vocabulary; nothing constrains the candidates.
			memo[code] = nil
			return nil, false
		}
		var out []int
		have := false
		for _, ed := range g.Edges() {
			sub, err := g.DeleteEdge(ed.U, ed.V)
			if err != nil || !sub.Connected() {
				continue
			}
			ids, ok := rec(sub)
			if !ok {
				continue
			}
			if !have {
				out, have = intset.Clone(ids), true
			} else {
				out = intset.Intersect(out, ids)
			}
		}
		memo[code] = out
		if !have {
			return nil, false
		}
		return out, true
	}
	ids, ok := rec(frag)
	if !ok {
		// No indexed information at all: all graphs remain candidates.
		all := make([]int, len(e.db))
		for i := range all {
			all[i] = i
		}
		return all
	}
	return ids
}

// Run verifies the candidates and returns exact matches only: GBLENDER
// returns an empty result set when the query has no exact match.
func (e *Engine) Run() ([]int, error) {
	if e.q.Size() == 0 {
		return nil, fmt.Errorf("gblender: running an empty query")
	}
	t0 := time.Now()
	defer func() { e.stats.RunTime = time.Since(t0) }()
	qg, _ := e.q.Graph()
	var out []int
	for _, id := range e.rq {
		if graph.SubgraphIsomorphic(qg, e.db[id]) {
			out = append(out, id)
		}
	}
	return out, nil
}
