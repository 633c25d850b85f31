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
// root and the node reached first on the frontier. Node labels are compared
// as interned ids (intern.go), never as strings.
//
// The search is bit-parallel: every set of g's nodes is a bitset of
// ceil(|V(g)|/64) words, so one kernel serves graphs of any size. The
// candidates for the query node at depth d are the data nodes with its
// label, minus those already mapped, ANDed with the neighbourhood of the
// image of every query neighbour ordered before it (its back-edges). They are
// walked in ascending data-node order, and each still needs at least the
// query node's degree and, when q or g has edge labels, its back-edges'
// labels. Per call, g's labels are read once per distinct query label to
// build its bitset (whose popcount is the label's rarity), and a data node's
// neighbourhood bitset is built the first time a back-edge lands on it. A
// search that runs past degreeMasksAfter extensions also builds one bitset
// per distinct degree checked, which folds the degree check into the AND.
//
// Match state is recycled through a sync.Pool so the per-candidate verify hot
// path is allocation-free in steady state. All scratch is re-sliced and
// cleared before each search, never on release: a state dirtied by a panic
// or an early-stop unwind is safe to reuse.

import (
	"math/bits"
	"slices"
	"sync"
)

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

// vf2Step is one depth of the visit order.
type vf2Step struct {
	qv    int // the query node mapped at this depth
	deg   int // its degree, which a candidate needs; 0 if moot or left to a bitset
	label int // offset in masks of its label's bitset
	// degree is the offset in masks of the bitset of g's nodes with at least
	// deg neighbours, or label's offset until filterDegrees runs.
	degree       int
	back0, back1 int // back[back0:back1]: its neighbours ordered before it
}

// vf2Node is what the visit order needs of one query node.
type vf2Node struct {
	label int   // index in labels
	rank  int   // lower ranks are visited first
	seen  uint8 // buildOrder: 0 unseen, 1 on the frontier, 2 ordered
}

type vf2State struct {
	q, g  *Graph
	words int   // bitset length: ceil(|V(g)|/64)
	core  []int // query node -> data node (valid for the mapped prefix)
	steps []vf2Step
	back  []int
	// rows[k] is the adjArena offset of the image of back[k], set when its
	// step is entered.
	rows []int

	// masks holds one bitset over g per distinct query label, then, once
	// filterDegrees has run, one per distinct degree a step checks;
	// rarity[i] counts g's nodes with labels[i].
	nodes      []vf2Node
	labels     []uint32
	rarity     []int
	masks      []uint64
	extensions int // match calls so far, leaves excluded

	used []uint64 // data nodes in the current partial mapping
	// The neighbourhood bitset of data node v is adjArena[adjRow[v]:] once
	// adjBuilt has v; adjRow is stale otherwise.
	adjBuilt []uint64
	adjRow   []int
	adjArena []uint64

	frontier []int // buildOrder scratch, in order of first appearance

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

// acquireState takes a state from the pool. Pair with release.
func acquireState() *vf2State { return vf2Pool.Get().(*vf2State) }

// release drops graph and callback references (so the pool never pins a
// caller's graphs or closures) and recycles the scratch slices.
func (s *vf2State) release() {
	s.q, s.g, s.fn, s.emb = nil, nil, nil, nil
	vf2Pool.Put(s)
}

// run searches for embeddings of q in g under the given result mode.
func (s *vf2State) run(q, g *Graph, mode vf2ResultMode, limit int, fn func(core []int) bool) {
	s.mode, s.limit, s.fn = mode, limit, fn
	s.found, s.count, s.emb = false, 0, nil
	if q.NumNodes() > g.NumNodes() || q.NumEdges() > g.NumEdges() {
		return
	}
	if s.prepare(q, g) {
		s.match(0)
	}
}

// prepare re-slices and clears every piece of scratch for a new (q, g) pair.
// Clearing happens here, before each search, so reuse after a panic or
// cancel that unwound mid-search is safe by construction. It reports false when g has
// fewer nodes of some label than q, so no search is needed.
func (s *vf2State) prepare(q, g *Graph) bool {
	s.q, s.g = q, g
	w := (g.NumNodes() + 63) >> 6
	s.words = w
	s.core = resize(s.core, q.NumNodes())
	s.used = resizeClear(s.used, w)
	s.adjBuilt = resizeClear(s.adjBuilt, w)
	s.adjRow = resize(s.adjRow, g.NumNodes())
	s.adjArena = s.adjArena[:0]
	s.edgeLabeled = q.edgeLabeled() || g.edgeLabeled()
	s.extensions = 0
	if !s.buildMasks() {
		return false
	}
	s.buildOrder()
	return true
}

// resize returns buf resliced to length n, reallocated only when too small.
func resize[T any](buf []T, n int) []T {
	if cap(buf) < n {
		return make([]T, n)
	}
	return buf[:n]
}

// resizeClear is resize with every element zeroed.
func resizeClear[T any](buf []T, n int) []T {
	buf = resize(buf, n)
	clear(buf)
	return buf
}

// buildMasks indexes q's distinct labels and builds their bitsets over g 64
// nodes at a time, and each label's rarity. It reports false when g has
// fewer nodes of some label than q.
func (s *vf2State) buildMasks() bool {
	q, n := s.q, s.q.NumNodes()
	s.labels, s.rarity = s.labels[:0], s.rarity[:0]
	s.nodes = resize(s.nodes, n)
	for v, l := range q.labels {
		i := 0
		for i < len(s.labels) && s.labels[i] != l {
			i++
		}
		if i == len(s.labels) {
			s.labels = append(s.labels, l)
			s.rarity = append(s.rarity, 0)
		}
		s.rarity[i]-- // q's nodes count down, g's count up below
		nd := &s.nodes[v]
		nd.label, nd.seen = i, 0
	}
	w, labels := s.words, s.labels
	masks := resize(s.masks, len(labels)*w)
	s.masks = masks
	gl := s.g.labels
	for k := 0; k < w; k++ {
		lo, hi := k<<6, min(k<<6+64, len(gl))
		for i, ql := range labels {
			masks[i*w+k] = labelWord(gl[lo:hi], ql)
		}
	}
	ok := true
	for i := range labels {
		c := 0
		for _, word := range masks[i*w : i*w+w] {
			c += bits.OnesCount64(word)
		}
		ok = ok && s.rarity[i]+c >= 0
		s.rarity[i] = c
	}
	return ok
}

// labelWord returns the bitset of the positions in ls (at most 64) that hold
// l.
func labelWord(ls []uint32, l uint32) uint64 {
	var m uint64
	for j, x := range ls {
		var b uint64
		if x == l {
			b = 1
		}
		m |= b << (j & 63)
	}
	return m
}

// buildOrder produces a connected visit order over q's nodes, lowest rank
// first (see the file comment), with each subsequent node adjacent to an
// already ordered one, and records each step's bitsets and back-edges. The
// frontier lists neighbours of ordered nodes in the order a scan of the
// ordered nodes' adjacency lists first meets them, so its first unordered
// node of lowest rank is the tie-break the file comment names. q must be
// connected.
func (s *vf2State) buildOrder() {
	q, n, w := s.q, s.q.NumNodes(), s.words
	s.steps, s.back, s.frontier = resize(s.steps, n), s.back[:0], s.frontier[:0]
	nodes := s.nodes
	next := 0
	for v := range nodes {
		// A lower rank is a rarer label, or the same rarity and a higher
		// degree: a query degree is below n.
		nd := &nodes[v]
		nd.rank = s.rarity[nd.label]*n + n - 1 - len(q.adj[v])
		if nd.rank < nodes[next].rank {
			next = v
		}
	}
	for depth := range s.steps {
		nd := &nodes[next]
		nd.seen = 2
		st := &s.steps[depth]
		st.qv, st.deg, st.back0 = next, len(q.adj[next]), len(s.back)
		st.label, st.degree = nd.label*w, nd.label*w
		for _, u := range q.adj[next] {
			switch nodes[u].seen {
			case 0:
				nodes[u].seen = 1
				s.frontier = append(s.frontier, u)
			case 2:
				s.back = append(s.back, u)
			}
		}
		st.back1 = len(s.back)
		// The check is moot for a degree of 1, which prunes only isolated
		// nodes, and for one no larger than the back-edges: a common
		// neighbour of their images has as many neighbours.
		if st.deg <= max(1, st.back1-st.back0) {
			st.deg = 0
		}
		next = -1
		for _, u := range s.frontier {
			if nodes[u].seen == 1 && (next < 0 || nodes[u].rank < nodes[next].rank) {
				next = u
			}
		}
	}
	s.rows = resize(s.rows, len(s.back))
}

// degreeMasksAfter is the number of extensions after which a search builds
// its degree bitsets. Most calls (a SPIG class settle, a SimVerify level
// that fails near the root) end well before it, and for them a pass over g
// per distinct degree costs more than the checks it would save; a long
// search, such as a containment path query's, gains from it. On the
// verify-comb benchmark 32 gave a lower SRT p50 and p95 than 16 or 64.
const degreeMasksAfter = 32

// filterDegrees builds, for each distinct degree a step still checks, the
// bitset of g's nodes with at least that many neighbours, points each such
// step's degree filter at its own and drops the step's per-candidate check.
// Frames on the stack keep the filters and check they took on entry: the
// label bitsets are never rewritten, even if the append moves them.
func (s *vf2State) filterDegrees() {
	w, n := s.words, s.g.NumNodes()
	for d := range s.steps {
		st := &s.steps[d]
		if st.deg == 0 {
			continue
		}
		st.degree = -1
		for _, e := range s.steps[:d] {
			if e.deg == st.deg {
				st.degree = e.degree
				break
			}
		}
		if st.degree < 0 {
			st.degree = len(s.masks)
			for k := 0; k < w; k++ {
				s.masks = append(s.masks, degreeWord(s.g.adj[k<<6:min(k<<6+64, n)], st.deg))
			}
		}
	}
	for d := range s.steps {
		s.steps[d].deg = 0 // the bitsets check it now
	}
}

// degreeWord returns the bitset of the positions in adj (at most 64) whose
// list has at least d entries.
func degreeWord(adj [][]int, d int) uint64 {
	var m uint64
	for j, a := range adj {
		var b uint64
		if len(a) >= d {
			b = 1
		}
		m |= b << (j & 63)
	}
	return m
}

// row returns the offset in adjArena of data node v's neighbourhood bitset,
// building it on first use in this call.
func (s *vf2State) row(v int) int {
	if s.adjBuilt[v>>6]&(1<<(v&63)) != 0 {
		return s.adjRow[v]
	}
	return s.buildRow(v)
}

// buildRow appends v's neighbourhood bitset to adjArena and returns its
// offset.
func (s *vf2State) buildRow(v int) int {
	s.adjBuilt[v>>6] |= 1 << (v & 63)
	off := len(s.adjArena)
	s.adjRow[v] = off
	s.adjArena = slices.Grow(s.adjArena, s.words)[:off+s.words]
	row := s.adjArena[off:]
	for k := 0; k < len(row); k++ { // not clear: a memclr call outweighs one word
		row[k] = 0
	}
	for _, u := range s.g.adj[v] {
		row[u>>6] |= 1 << (u & 63)
	}
	return off
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

// match extends the mapping at depth; returning true stops the search.
func (s *vf2State) match(depth int) bool {
	if depth == len(s.steps) {
		return s.onResult()
	}
	if s.extensions++; s.extensions == degreeMasksAfter {
		s.filterDegrees()
	}
	st := &s.steps[depth]
	back, rows := s.back[st.back0:st.back1], s.rows[st.back0:st.back1]
	for k, qn := range back {
		rows[k] = s.row(s.core[qn])
	}
	// Rows are never rewritten once built, so this view stays valid when a
	// deeper level grows the arena into a new array.
	arena := s.adjArena
	w := s.words
	// The filters are taken once: a deeper filterDegrees leaves this frame
	// with its own, per-candidate degree check.
	label, degree, deg := s.masks[st.label:][:w], s.masks[st.degree:][:w], st.deg
	used, adj := s.used[:w], s.g.adj
	for i, word := range label {
		word &= degree[i] &^ used[i]
		for _, r := range rows {
			word &= arena[r+i]
		}
		for ; word != 0; word &= word - 1 {
			gv := i<<6 | bits.TrailingZeros64(word)
			if deg > 0 && len(adj[gv]) < deg || s.edgeLabeled && !s.edgeLabelsAgree(st.qv, gv, back) {
				continue
			}
			bit := word & -word
			s.core[st.qv] = gv
			used[i] |= bit
			if s.match(depth + 1) {
				return true
			}
			used[i] &^= bit
		}
	}
	return false
}

// edgeLabelsAgree reports whether each back-edge {qv, qn} carries the label
// of its image {gv, core[qn]}.
func (s *vf2State) edgeLabelsAgree(qv, gv int, back []int) bool {
	for _, qn := range back {
		if s.q.EdgeLabel(qv, qn) != s.g.EdgeLabel(gv, s.core[qn]) {
			return false
		}
	}
	return true
}

// SubgraphIsomorphic reports whether q is subgraph-isomorphic to g (q ⊆ g in
// the paper's notation). q must be connected. Allocation-free in steady
// state: the match state comes from a pool and no closure is created.
func SubgraphIsomorphic(q, g *Graph) bool {
	s := acquireState()
	defer s.release()
	s.run(q, g, modeExists, 0, nil)
	return s.found
}

// FindEmbedding returns one embedding of q into g as a query-node -> data-node
// slice, or nil if none exists: the first one the search meets, not a
// canonical one. The returned slice is freshly allocated and owned by the
// caller.
func FindEmbedding(q, g *Graph) []int {
	s := acquireState()
	defer s.release()
	s.run(q, g, modeFirst, 0, nil)
	return s.emb
}

// CountEmbeddings counts embeddings of q in g, stopping at limit (0 = no
// limit). Distinct node mappings are counted separately (automorphic images
// included), matching Grafil-style feature counting.
func CountEmbeddings(q, g *Graph, limit int) int {
	s := acquireState()
	defer s.release()
	s.run(q, g, modeCount, limit, nil)
	return s.count
}

// ForEachEmbedding invokes fn for every embedding of q in g (query-node ->
// data-node slice, valid only during the call). Returning true from fn stops
// the enumeration. If fn panics, the pooled state is still recycled safely
// (scratch is cleared on acquire, not release).
func ForEachEmbedding(q, g *Graph, fn func(core []int) bool) {
	s := acquireState()
	defer s.release()
	s.run(q, g, modeForEach, 0, fn)
}

// forEachEmbeddingFresh runs the same search on a freshly allocated,
// never-pooled state. It exists for differential tests that pin pooled and
// fresh execution to identical results.
func forEachEmbeddingFresh(q, g *Graph, fn func(core []int) bool) {
	new(vf2State).run(q, g, modeForEach, 0, fn)
}
