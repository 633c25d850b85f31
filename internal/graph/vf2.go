package graph

// VF2-style subgraph isomorphism for node-labeled undirected graphs, after
// Cordella et al. [3], the verifier the paper adopts. The matching is the
// standard (non-induced) subgraph isomorphism of the paper: an injective
// mapping m from the query's nodes to the data graph's nodes such that labels
// are preserved and every query edge {u,v} maps to a data edge {m(u), m(v)}
// carrying the same edge label.
//
// Query nodes are visited in a connected order chosen per data graph: the
// root is the query node whose label is rarest among g's nodes, and each next
// node is the frontier node (adjacent to one already ordered) with the rarest
// label. Ties go to the higher query degree, then to the lower index at the
// root and the node reached first on the frontier. A query with one distinct
// label skips the count, so its order is by degree alone. Node labels are
// compared as interned ids (intern.go), never as strings. Edge labels are
// compared only when q or g has any.
//
// Match state is recycled through a sync.Pool so the per-candidate verify hot
// path is allocation-free in steady state. All scratch is re-sliced and
// cleared on acquire, never on release: a state dirtied by a panic or an
// early-stop unwind is safe to reuse.

import "sync"

type vf2ResultMode uint8

const (
	// modeExists stops at the first embedding and records only existence.
	modeExists vf2ResultMode = iota
	// modeFirst stops at the first embedding and snapshots it into emb.
	modeFirst
	// modeCount counts embeddings up to limit (0 = unbounded).
	modeCount
	// modeForEach invokes fn per embedding until it returns true.
	modeForEach
)

type vf2State struct {
	q, g   *Graph
	core   []int // query node -> data node, -1 if unmapped
	mapped []bool
	order  []int // query node visit order (connected expansion)
	parent []int // order position -> earlier query neighbor (-1 for root)

	inOrder []bool // buildOrder scratch
	rarity  []int  // buildOrder scratch: query node -> g's nodes with its label

	// edgeLabeled is set when q or g has edge labels; otherwise every edge
	// label is "" and the per-edge comparison is skipped.
	edgeLabeled bool

	// Result handling is mode-based rather than closure-based so the hot
	// entry points allocate nothing per call.
	mode  vf2ResultMode
	found bool
	count int
	limit int
	emb   []int                 // modeFirst: freshly allocated embedding copy
	fn    func(core []int) bool // modeForEach only
}

var vf2Pool = sync.Pool{New: func() any { return new(vf2State) }}

// acquireState returns a cleared state bound to (q, g). Pair with release.
func acquireState(q, g *Graph) *vf2State {
	s := vf2Pool.Get().(*vf2State)
	s.prepare(q, g)
	return s
}

// release drops graph and callback references (so the pool never pins a
// caller's graphs or closures) and recycles the scratch slices.
func (s *vf2State) release() {
	s.q, s.g, s.fn, s.emb = nil, nil, nil, nil
	vf2Pool.Put(s)
}

// prepare re-slices and clears every piece of scratch for a new (q, g) pair.
// Clearing happens here — on acquire — so reuse after a panic or cancel that
// unwound mid-search is safe by construction.
func (s *vf2State) prepare(q, g *Graph) {
	s.q, s.g = q, g
	s.core = resizeInts(s.core, q.NumNodes())
	for i := range s.core {
		s.core[i] = -1
	}
	s.mapped = resizeBools(s.mapped, g.NumNodes())
	s.edgeLabeled = q.edgeLabeled() || g.edgeLabeled()
	s.mode = modeExists
	s.found = false
	s.count, s.limit = 0, 0
	s.fn = nil
	s.emb = nil
	s.buildOrder()
}

func resizeInts(buf []int, n int) []int {
	if cap(buf) < n {
		return make([]int, n)
	}
	return buf[:n]
}

// resizeBools returns an all-false bool slice of length n reusing buf's
// backing array when large enough.
func resizeBools(buf []bool, n int) []bool {
	if cap(buf) < n {
		return make([]bool, n)
	}
	buf = buf[:n]
	clear(buf)
	return buf
}

// countLabels sets rarity[v] to the number of g's nodes labeled like query
// node v. With a single distinct query label every count would be equal, so
// the count is skipped and rarity stays all zero.
func (s *vf2State) countLabels(n int) {
	s.rarity = resizeInts(s.rarity, n)
	clear(s.rarity)
	ql := s.q.labels
	single := true
	for v := 1; v < n && single; v++ {
		single = ql[v] == ql[0]
	}
	if single {
		return
	}
	for v := 0; v < n; v++ {
		u := 0
		for u < v && ql[u] != ql[v] {
			u++
		}
		if u < v { // label already counted at u
			s.rarity[v] = s.rarity[u]
			continue
		}
		for _, l := range s.g.labels {
			if l == ql[v] {
				s.rarity[v]++
			}
		}
	}
}

// before reports whether query node v is explored before w: rarer label in g
// first, then higher degree.
func (s *vf2State) before(v, w int) bool {
	if s.rarity[v] != s.rarity[w] {
		return s.rarity[v] < s.rarity[w]
	}
	return s.q.Degree(v) > s.q.Degree(w)
}

// buildOrder produces a connected visit order over q's nodes, rarest label in
// g first (see the file comment), with each subsequent node adjacent to an
// already ordered one. q must be connected.
func (s *vf2State) buildOrder() {
	q := s.q
	n := q.NumNodes()
	s.inOrder = resizeBools(s.inOrder, n)
	s.order = s.order[:0]
	s.parent = s.parent[:0]
	s.countLabels(n)
	start := 0
	for v := 1; v < n; v++ {
		if s.before(v, start) {
			start = v
		}
	}
	s.order = append(s.order, start)
	s.parent = append(s.parent, -1)
	if start < n {
		s.inOrder[start] = true
	}
	for len(s.order) < n {
		bestV, bestPar := -1, -1
		for _, u := range s.order {
			for _, w := range q.Neighbors(u) {
				if !s.inOrder[w] && (bestV == -1 || s.before(w, bestV)) {
					bestV, bestPar = w, u
				}
			}
		}
		s.order = append(s.order, bestV)
		s.parent = append(s.parent, bestPar)
		s.inOrder[bestV] = true
	}
}

// onResult consumes a complete mapping; returning true stops the search.
func (s *vf2State) onResult() bool {
	switch s.mode {
	case modeExists:
		s.found = true
		return true
	case modeFirst:
		s.found = true
		s.emb = append([]int(nil), s.core...)
		return true
	case modeCount:
		s.count++
		return s.limit > 0 && s.count >= s.limit
	default:
		return s.fn(s.core)
	}
}

func (s *vf2State) match(depth int) bool {
	if depth == len(s.order) {
		return s.onResult()
	}
	qv := s.order[depth]
	par := s.parent[depth]

	if par == -1 {
		// Root: every data node is a candidate; iterate directly rather
		// than materializing a slice.
		for gv := 0; gv < s.g.NumNodes(); gv++ {
			if s.tryCandidate(depth, qv, gv) {
				return true
			}
		}
		return false
	}
	for _, gv := range s.g.Neighbors(s.core[par]) {
		if s.tryCandidate(depth, qv, gv) {
			return true
		}
	}
	return false
}

// tryCandidate attempts to extend the mapping with qv -> gv and recurse;
// returning true stops the search.
func (s *vf2State) tryCandidate(depth, qv, gv int) bool {
	if s.mapped[gv] || s.g.labels[gv] != s.q.labels[qv] {
		return false
	}
	if s.g.Degree(gv) < s.q.Degree(qv) {
		return false
	}
	// All already-mapped query neighbors of qv must map to neighbors of gv,
	// with matching edge labels.
	for _, qn := range s.q.Neighbors(qv) {
		if s.core[qn] == -1 {
			continue
		}
		if !s.g.HasEdge(gv, s.core[qn]) {
			return false
		}
		if s.edgeLabeled && s.q.EdgeLabel(qv, qn) != s.g.EdgeLabel(gv, s.core[qn]) {
			return false
		}
	}
	s.core[qv] = gv
	s.mapped[gv] = true
	if s.match(depth + 1) {
		return true
	}
	s.core[qv] = -1
	s.mapped[gv] = false
	return false
}

// SubgraphIsomorphic reports whether q is subgraph-isomorphic to g (q ⊆ g in
// the paper's notation). q must be connected. Allocation-free in steady
// state: the match state comes from a pool and no closure is created.
func SubgraphIsomorphic(q, g *Graph) bool {
	if q.NumNodes() > g.NumNodes() || q.NumEdges() > g.NumEdges() {
		return false
	}
	s := acquireState(q, g)
	defer s.release()
	s.mode = modeExists
	s.match(0)
	return s.found
}

// FindEmbedding returns one embedding of q into g as a query-node -> data-node
// slice, or nil if none exists. The returned slice is freshly allocated and
// owned by the caller.
func FindEmbedding(q, g *Graph) []int {
	if q.NumNodes() > g.NumNodes() || q.NumEdges() > g.NumEdges() {
		return nil
	}
	s := acquireState(q, g)
	defer s.release()
	s.mode = modeFirst
	s.match(0)
	out := s.emb
	s.emb = nil
	return out
}

// CountEmbeddings counts embeddings of q in g, stopping at limit (0 = no
// limit). Distinct node mappings are counted separately (automorphic images
// included), matching Grafil-style feature counting.
func CountEmbeddings(q, g *Graph, limit int) int {
	if q.NumNodes() > g.NumNodes() || q.NumEdges() > g.NumEdges() {
		return 0
	}
	s := acquireState(q, g)
	defer s.release()
	s.mode = modeCount
	s.limit = limit
	s.match(0)
	return s.count
}

// ForEachEmbedding invokes fn for every embedding of q in g (query-node ->
// data-node slice, valid only during the call). Returning true from fn stops
// the enumeration. If fn panics, the pooled state is still recycled safely
// (scratch is cleared on acquire, not release).
func ForEachEmbedding(q, g *Graph, fn func(core []int) bool) {
	if q.NumNodes() > g.NumNodes() || q.NumEdges() > g.NumEdges() {
		return
	}
	s := acquireState(q, g)
	defer s.release()
	s.mode = modeForEach
	s.fn = fn
	s.match(0)
}

// forEachEmbeddingFresh runs the same search on a freshly allocated,
// never-pooled state. It exists for differential tests that pin pooled and
// fresh execution to identical results.
func forEachEmbeddingFresh(q, g *Graph, fn func(core []int) bool) {
	if q.NumNodes() > g.NumNodes() || q.NumEdges() > g.NumEdges() {
		return
	}
	s := new(vf2State)
	s.prepare(q, g)
	s.mode = modeForEach
	s.fn = fn
	s.match(0)
}
