// Package spig implements the spindle-shaped graph (SPIG) of the paper's §V:
// for each new edge eℓ the user draws, a SPIG records every connected
// subgraph of the query fragment that contains eℓ, organized into levels by
// size, each vertex carrying the fragment's canonical code and its Fragment
// List (frequent id, DIF id, frequent-subgraph id set Φ, DIF-subgraph id set
// Υ) with respect to the action-aware indexes.
//
// Two representational notes (see DESIGN.md):
//
//   - A SPIG built at step ℓ ranges over the query fragment *as of* step ℓ,
//     so across the SPIG set S every connected subgraph of the current query
//     appears in exactly one SPIG — the one of its largest edge label. That is
//     what makes Lemma 1 (N(k) ≤ C(n,k)) and Lemma 2 hold.
//
//   - A vertex is an isomorphism class: distinct edge subsets with the same
//     canonical code collapse into one vertex (the paper's "unique vertexes"),
//     and the vertex keeps every realizing edge set so that query
//     modification (Algorithm 6) can drop exactly the realizations containing
//     a deleted edge.
//
// A realization is a uint64 edge mask over the Set's slots, one slot per live
// query edge, so a query holds at most MaxLiveEdges live edges. Each class's
// canonical code is computed once per session: a realization first met is
// materialized, bucketed by an isomorphism invariant, and settled by VF2
// against the bucket's classes; only a class new to the session runs
// MinDFSCode.
package spig

import (
	"context"
	"errors"
	"fmt"
	"math/bits"
	"slices"
	"sort"
	"strings"
	"time"

	"prague/internal/graph"
	"prague/internal/index"
	"prague/internal/intset"
	"prague/internal/query"
	"prague/internal/trace"
)

// Vertex is one SPIG vertex: an isomorphism class of connected query
// subgraphs containing the SPIG's new edge.
type Vertex struct {
	SpigLabel int    // ℓ of the owning SPIG
	Level     int    // fragment size |g|
	Code      string // cam(g): canonical code of the fragment
	Frag      *graph.Graph

	// Reps holds every realization of this class — the Edge Lists L_E(g)
	// of the paper — as edge masks over the owning Set's slots, in
	// enumeration order; Set.Steps names a mask's step labels.
	Reps []uint64

	// Fragment List (Definition 4). Kind tells which case applies.
	Kind   index.Kind
	FreqID int   // a2fId(g) when Kind == KindFrequent, else -1
	DifID  int   // a2iId(g) when Kind == KindDIF, else -1
	Phi    []int // frequent subgraph id set Φ(g) (largest frequent subgraphs)
	Ups    []int // DIF subgraph id set Υ(g) (all DIF subgraphs)
}

// SPIG is the spindle-shaped graph of one formulation step.
type SPIG struct {
	L      int // the new edge's step label
	set    *Set
	levels [][]*Vertex
	byCode []map[string]*Vertex
}

// Label returns ℓ, the step label of the new edge this SPIG was built for.
func (s *SPIG) Label() int { return s.L }

// MaxLevel returns the highest level index (the query size at construction).
func (s *SPIG) MaxLevel() int { return len(s.levels) - 1 }

// Level returns the vertices at level k (fragments with k edges), or nil.
func (s *SPIG) Level(k int) []*Vertex {
	if k < 1 || k >= len(s.levels) {
		return nil
	}
	return s.levels[k]
}

// Source returns the level-1 vertex (the new edge itself), or nil if it has
// been removed by modifications.
func (s *SPIG) Source() *Vertex {
	if len(s.levels) > 1 && len(s.levels[1]) == 1 {
		return s.levels[1][0]
	}
	return nil
}

// FindByCode returns the vertex with the given canonical code at level k.
func (s *SPIG) FindByCode(k int, code string) *Vertex {
	if k < 1 || k >= len(s.byCode) {
		return nil
	}
	return s.byCode[k][code]
}

// NumVertices returns the total vertex count across levels.
func (s *SPIG) NumVertices() int {
	n := 0
	for _, lv := range s.levels {
		n += len(lv)
	}
	return n
}

// Classifier is the one index capability SPIG construction needs: mapping a
// fragment's canonical code to its action-aware classification. *index.Set
// satisfies it, and so does any graph store whose layout keeps the fragment
// vocabulary intact (every shard of a partitioned store classifies
// identically, so SPIGs are layout-independent).
type Classifier interface {
	Lookup(code string) (index.Kind, int)
}

// MaxLiveEdges bounds the live edges of a Set's query: every realization is
// a uint64 mask with one bit per live edge.
const MaxLiveEdges = 64

// ErrTooManyEdges is wrapped by the error Construct returns when the new
// edge would be the query's 65th live edge. The Set is left as it was.
var ErrTooManyEdges = errors.New("spig: a query holds at most 64 live edges")

// slot is one live query edge as the Set sees it. Node labels are fixed for
// a slot's lifetime: relabeling a node re-draws its edges under new steps.
type slot struct {
	step   int
	a, b   int    // endpoint canvas node ids
	la, lb uint32 // their interned labels
	le     uint32 // interned edge label
	label  string // edge label ("" = unlabeled)
}

// class is one isomorphism class met in the session: the fragment of its
// first realization and its canonical code. gen and v cache the class's
// vertex in the SPIG under construction (valid while gen equals Set.gen).
type class struct {
	frag *graph.Graph
	code string
	gen  uint64
	v    *Vertex
	h    uint64 // the invariant bucketing the class
	refs int    // memo entries referring to the class
}

// realization is a memo entry: a mask's own fragment (a vertex's Frag is
// that of its SPIG's first realization) and its class.
type realization struct {
	frag *graph.Graph
	c    *class
}

// nodeAcc accumulates one fragment node's share of the invariant.
type nodeAcc struct {
	id  int    // canvas node id
	lab uint32 // interned label
	deg uint64
	nb  uint64 // commutative sum of hashed (neighbour colour, edge label)
}

// Set is the SPIG set S maintained across formulation steps. A Set serves a
// single formulation session over a single *query.Query and, like the engine
// that owns it, is not safe for concurrent use.
type Set struct {
	spigs map[int]*SPIG
	order []int // ascending ℓ
	idx   Classifier

	// Session state. Slot order is step order: a new edge takes the slot
	// above every used one, and when none is left compact renumbers the
	// used slots from 0, rewriting every mask. Deleting an edge frees its
	// slot and evicts the memo entries holding it, so a reused slot never
	// aliases a stale fragment. The class table holds exactly the classes
	// the memo refers to: the deletion drops the rest, so the table shrinks
	// with the query instead of keeping every class the session met.
	q       *query.Query
	slots   [MaxLiveEdges]slot
	adj     [MaxLiveEdges]uint64 // slots whose edges share an endpoint
	used    uint64
	memo    map[uint64]realization // by mask
	classes map[uint64][]*class    // invariant -> the session's classes with it

	// Construction scratch, reused across user actions.
	gen       uint64 // construction counter, for class.gen
	cur, next []uint64
	seen      map[uint64]struct{} // next-level dedup
	nodes     []nodeAcc
	ends      [][3]uint32 // fragment's edges: node, node, edge label

	// Work counters for the spig_build span: realizations materialized,
	// canonical codes computed and the time spent on them (timed only when
	// traced is set).
	traced    bool
	fragments int64
	codes     int64
	codeTime  time.Duration
}

// NewSet returns an empty SPIG set bound to the action-aware indexes.
func NewSet(idx Classifier) *Set {
	return &Set{spigs: map[int]*SPIG{}, idx: idx}
}

// bind makes the slots track q's live edges up to step ell: it drops every
// edge q no longer has as DeleteEdge would, then gives each edge drawn since
// the last bind a slot above every used one. The first bind ties the Set to
// q for good.
func (S *Set) bind(q *query.Query, ell int) error {
	switch S.q {
	case q:
	case nil:
		S.q = q
		S.memo = map[uint64]realization{}
		S.classes = map[uint64][]*class{}
		S.seen = map[uint64]struct{}{}
	default:
		return errors.New("spig: the set serves another query")
	}
	for r := S.used; r != 0; r &= r - 1 {
		st := S.slots[bits.TrailingZeros64(r)].step
		if _, ok := q.Edge(st); !ok {
			S.DeleteEdge(st)
		}
	}
	// Steps are allocated in increasing order and every live step up to
	// the highest slotted one is slotted, so the new edges are the live
	// steps in (last, ell].
	top, last := bits.Len64(S.used), 0
	if top > 0 {
		last = S.slots[top-1].step
	}
	steps := q.Steps()
	fresh := steps[sort.SearchInts(steps, last+1):sort.SearchInts(steps, ell+1)]
	if live := bits.OnesCount64(S.used) + len(fresh); live > MaxLiveEdges {
		return fmt.Errorf("spig: e%d would be live edge %d: %w", fresh[len(fresh)-1], live, ErrTooManyEdges)
	}
	if top+len(fresh) > MaxLiveEdges {
		S.compact()
		top = bits.Len64(S.used)
	}
	for _, st := range fresh {
		e, _ := q.Edge(st)
		S.slots[top] = slot{
			step: st, a: e.A, b: e.B,
			la: graph.InternLabel(q.NodeLabel(e.A)), lb: graph.InternLabel(q.NodeLabel(e.B)),
			le: graph.InternLabel(e.Label), label: e.Label,
		}
		bit := uint64(1) << top
		S.adj[top] = 0
		for r := S.used; r != 0; r &= r - 1 {
			o := bits.TrailingZeros64(r)
			if os := &S.slots[o]; os.a == e.A || os.a == e.B || os.b == e.A || os.b == e.B {
				S.adj[o] |= bit
				S.adj[top] |= uint64(1) << o
			}
		}
		S.used |= bit
		top++
	}
	return nil
}

// slotOf returns the slot holding the given step, or -1.
func (S *Set) slotOf(step int) int {
	for r := S.used; r != 0; r &= r - 1 {
		if i := bits.TrailingZeros64(r); S.slots[i].step == step {
			return i
		}
	}
	return -1
}

// free releases slot i, evicts the memo entries whose mask holds it, and
// drops the classes no surviving memo entry refers to.
func (S *Set) free(i int) {
	bit := uint64(1) << i
	S.used &^= bit
	for r := S.adj[i]; r != 0; r &= r - 1 {
		S.adj[bits.TrailingZeros64(r)] &^= bit
	}
	S.adj[i] = 0
	for m, r := range S.memo {
		if m&bit == 0 {
			continue
		}
		delete(S.memo, m)
		c := r.c
		if c.refs--; c.refs == 0 {
			bucket := S.classes[c.h]
			i := slices.Index(bucket, c)
			bucket = slices.Delete(bucket, i, i+1)
			if len(bucket) == 0 {
				delete(S.classes, c.h)
			} else {
				S.classes[c.h] = bucket
			}
		}
	}
}

// compact renumbers the used slots 0..n-1, keeping their order, and rewrites
// every mask the Set holds — adjacency, memo keys and realizations — to the
// new numbering.
func (S *Set) compact() {
	used := S.used
	squeeze := func(m uint64) uint64 {
		var out uint64
		for i, r := 0, used; r != 0; i, r = i+1, r&(r-1) {
			if m&r&-r != 0 {
				out |= uint64(1) << i
			}
		}
		return out
	}
	var slots [MaxLiveEdges]slot
	var adj [MaxLiveEdges]uint64
	n := 0
	for r := used; r != 0; r &= r - 1 {
		o := bits.TrailingZeros64(r)
		slots[n], adj[n] = S.slots[o], squeeze(S.adj[o])
		n++
	}
	S.slots, S.adj, S.used = slots, adj, uint64(1)<<n-1
	memo := make(map[uint64]realization, len(S.memo))
	for m, r := range S.memo {
		memo[squeeze(m)] = r
	}
	S.memo = memo
	for _, s := range S.spigs {
		for _, lv := range s.levels {
			for _, v := range lv {
				for j, m := range v.Reps {
					v.Reps[j] = squeeze(m)
				}
			}
		}
	}
}

// Steps returns the step labels of the edges in mask m (one of a vertex's
// Reps), ascending.
func (S *Set) Steps(m uint64) []int {
	out := make([]int, 0, bits.OnesCount64(m))
	for r := m; r != 0; r &= r - 1 {
		out = append(out, S.slots[bits.TrailingZeros64(r)].step)
	}
	return out
}

// connected reports whether the edges of mask m form one connected fragment.
func (S *Set) connected(m uint64) bool {
	if m == 0 {
		return false
	}
	reach := m & -m
	for frontier := reach; frontier != 0; {
		var grow uint64
		for r := frontier; r != 0; r &= r - 1 {
			grow |= S.adj[bits.TrailingZeros64(r)]
		}
		frontier = grow & m &^ reach
		reach |= frontier
	}
	return reach == m
}

// classOf returns the connected realization m with its class. A mask met
// before is a memo hit; a new one is materialized and checked by VF2
// against the classes sharing its invariant (equal node and edge counts
// make that an isomorphism test), and only a class new to the session gets
// its canonical code computed.
func (S *Set) classOf(m uint64) realization {
	if r, ok := S.memo[m]; ok {
		return r
	}
	S.fragments++
	frag, h := S.fragment(m)
	for _, c := range S.classes[h] {
		if c.frag.NumNodes() == frag.NumNodes() && c.frag.NumEdges() == frag.NumEdges() && graph.SubgraphIsomorphic(c.frag, frag) {
			r := realization{frag, c}
			S.memo[m] = r
			c.refs++
			return r
		}
	}
	var t0 time.Time
	if S.traced {
		t0 = time.Now()
	}
	c := &class{frag: frag, code: graph.CanonicalCode(frag), h: h, refs: 1}
	if S.traced {
		S.codeTime += time.Since(t0)
	}
	S.codes++
	S.classes[h] = append(S.classes[h], c)
	r := realization{frag, c}
	S.memo[m] = r
	return r
}

// fragment materializes the realization m and returns it with its
// isomorphism invariant: the node and edge counts and one Weisfeiler–Lehman
// round over nodes coloured by (label, degree), each node hashing its colour
// with its neighbours' colours and the edge labels to them. Nodes are
// numbered in order of first appearance over the edges in step order, as
// query.FragmentOf numbers them. Per-node hashes are summed, so the
// invariant does not depend on that numbering.
func (S *Set) fragment(m uint64) (*graph.Graph, uint64) {
	g := graph.New(-1)
	nodes := S.nodes[:0]
	nodeOf := func(id int, lab uint32) int {
		for i := range nodes {
			if nodes[i].id == id {
				return i
			}
		}
		nodes = append(nodes, nodeAcc{id: id, lab: lab})
		return g.AddNodeID(lab)
	}
	ends := S.ends[:0]
	for r := m; r != 0; r &= r - 1 {
		e := &S.slots[bits.TrailingZeros64(r)]
		i, j := nodeOf(e.a, e.la), nodeOf(e.b, e.lb)
		if err := g.AddLabeledEdge(i, j, e.label); err != nil {
			panic(fmt.Sprintf("spig: slot edge e%d: %v", e.step, err)) // query edges are simple
		}
		nodes[i].deg++
		nodes[j].deg++
		ends = append(ends, [3]uint32{uint32(i), uint32(j), e.le})
	}
	for _, e := range ends {
		i, j := &nodes[e[0]], &nodes[e[1]]
		i.nb += mix(uint64(j.lab)<<32 | j.deg<<24 | uint64(e[2]))
		j.nb += mix(uint64(i.lab)<<32 | i.deg<<24 | uint64(e[2]))
	}
	h := mix(uint64(len(nodes))<<32 | uint64(len(ends)))
	for _, n := range nodes {
		h += mix(mix(uint64(n.lab)<<32|n.deg) ^ n.nb)
	}
	S.nodes, S.ends = nodes, ends
	return g, h
}

// mix is the splitmix64 finalizer.
func mix(x uint64) uint64 {
	x ^= x >> 30
	x *= 0xbf58476d1ce4e5b9
	x ^= x >> 27
	x *= 0x94d049bb133111eb
	return x ^ x>>31
}

// SetClassifier rebinds the set to a different classifier — typically an
// epoch snapshot pinned by the engine, so every vertex built during one GUI
// action classifies against a single store state. Existing vertices keep the
// classification of the epoch they were built under; that is sound because
// evaluation relies on the exactness of the index id lists, never on a
// vertex's frozen Kind (a stale-frequent fragment's FSG list is still its
// exact answer set, and a masked fragment merely degrades to the verified
// NIF path).
func (S *Set) SetClassifier(idx Classifier) { S.idx = idx }

// Spig returns the SPIG for edge label ℓ, or nil.
func (S *Set) Spig(ell int) *SPIG { return S.spigs[ell] }

// Labels returns the SPIG labels in ascending order.
func (S *Set) Labels() []int { return append([]int(nil), S.order...) }

// NumVertices returns the total vertex count across all SPIGs.
func (S *Set) NumVertices() int {
	n := 0
	for _, s := range S.spigs {
		n += s.NumVertices()
	}
	return n
}

// Construct implements Algorithm 2 (SpigConstruct): it builds the SPIG for
// the new edge eℓ over the current query fragment, computing each vertex's
// Fragment List from the action-aware indexes or by inheritance from the
// SPIG set, and adds it to S.
func (S *Set) Construct(q *query.Query, ell int) (*SPIG, error) {
	return S.ConstructCtx(context.Background(), q, ell)
}

// ConstructCtx is Construct with tracing: when ctx carries a span, the
// aggregate time spent computing canonical codes and classifying vertices
// against the indexes is attached as canonical_code / index_probe child
// spans (one per call, not per vertex — SPIG levels visit hundreds of
// realizations), and the span itself counts the realizations enumerated
// (edge sets, every level) and the fragments materialized for them. The
// construction itself is unaffected by ctx.
func (S *Set) ConstructCtx(ctx context.Context, q *query.Query, ell int) (*SPIG, error) {
	sp := trace.SpanFromContext(ctx)
	if _, ok := q.Edge(ell); !ok {
		return nil, fmt.Errorf("spig: query has no edge with step %d", ell)
	}
	if _, ok := S.spigs[ell]; ok {
		return nil, fmt.Errorf("spig: SPIG for e%d already constructed", ell)
	}
	if err := S.bind(q, ell); err != nil {
		return nil, err
	}
	// A SPIG ranges over the query fragment as of step ℓ: only edges with
	// step labels ≤ ℓ participate — the slots up to ℓ's, since slot order
	// is step order. In the ordinary flow every current edge qualifies;
	// when SPIGs are rebuilt out of order (node relabeling), the filter
	// preserves the "each subgraph lives in the SPIG of its largest edge
	// label" invariant.
	src := uint64(1) << S.slotOf(ell)
	part := S.used & (src<<1 - 1)
	n := bits.OnesCount64(part)

	s := &SPIG{
		L:      ell,
		set:    S,
		levels: make([][]*Vertex, n+1),
		byCode: make([]map[string]*Vertex, n+1),
	}
	for k := 1; k <= n; k++ {
		s.byCode[k] = map[string]*Vertex{}
	}

	// Level-by-level growth of connected edge sets containing eℓ: level k+1
	// ORs each level-k mask with the edges adjacent to it, in step order.
	S.gen++
	S.traced = sp != nil
	fragments0, codes0, codeTime0 := S.fragments, S.codes, S.codeTime
	var probeDur time.Duration
	var probeN, realizations int64
	cur := append(S.cur[:0], src)
	for k := 1; k <= n; k++ {
		realizations += int64(len(cur))
		// Group this level's realizations into isomorphism classes.
		for _, m := range cur {
			r := S.classOf(m)
			c, v := r.c, r.c.v
			if c.gen != S.gen {
				v = &Vertex{
					SpigLabel: ell, Level: k, Code: c.code, Frag: r.frag,
					FreqID: -1, DifID: -1,
				}
				c.gen, c.v = S.gen, v
				s.byCode[k][c.code] = v
				s.levels[k] = append(s.levels[k], v)
			}
			v.Reps = append(v.Reps, m)
		}
		// Fragment lists for the finished level (parents at k-1 are final).
		var t1 time.Time
		if sp != nil {
			t1 = time.Now()
		}
		for _, v := range s.levels[k] {
			S.classify(v, src)
		}
		if sp != nil {
			probeDur += time.Since(t1)
			probeN += int64(len(s.levels[k]))
		}
		if k == n {
			break
		}
		// Next level's realizations, deduplicated in first-seen order.
		clear(S.seen)
		next := S.next[:0]
		for _, m := range cur {
			var tried uint64
			for r := m; r != 0; r &= r - 1 {
				for a := S.adj[bits.TrailingZeros64(r)] & part &^ (m | tried); a != 0; a &= a - 1 {
					u := a & -a
					tried |= u
					if _, dup := S.seen[m|u]; !dup {
						S.seen[m|u] = struct{}{}
						next = append(next, m|u)
					}
				}
			}
		}
		S.next = cur // recycle the finished level's slice
		cur = next
	}
	S.cur = cur[:0]

	if sp != nil {
		sp.Add("realizations", realizations)
		sp.Add("fragments", S.fragments-fragments0)
		sp.Record(trace.KindCanonical, S.codeTime-codeTime0, "codes", S.codes-codes0)
		sp.Record(trace.KindIndexProbe, probeDur, "vertices", probeN)
	}
	S.spigs[ell] = s
	S.order = append(S.order, ell)
	sort.Ints(S.order)
	return s, nil
}

// classify fills in the Fragment List of v per Definition 4: an indexed
// fragment gets its a2fId/a2iId; a NIF inherits Φ from its largest frequent
// subgraphs and Υ from all of its subgraphs' DIF ids, via the SPIG parents
// (largest subgraphs containing eℓ, whose mask src is) and the cross-SPIG
// vertex of g−eℓ.
func (S *Set) classify(v *Vertex, src uint64) {
	kind, id := S.idx.Lookup(v.Code)
	v.Kind = kind
	switch kind {
	case index.KindFrequent:
		v.FreqID = id
		return
	case index.KindDIF:
		v.DifID = id
		return
	}

	var phi, ups []int
	inherit := func(p *Vertex) {
		switch p.Kind {
		case index.KindFrequent:
			phi = append(phi, p.FreqID)
		case index.KindDIF:
			ups = append(ups, p.DifID)
		default:
			ups = append(ups, p.Ups...)
		}
	}

	for _, rep := range v.Reps {
		for r := rep; r != 0; r &= r - 1 {
			t := r & -r
			sub := rep &^ t
			e, ok := S.memo[sub]
			if !ok {
				// A disconnected rep − t has no vertex to inherit from; a
				// connected one misses only when its entry was evicted.
				if !S.connected(sub) {
					continue
				}
				e = S.classOf(sub)
			}
			c := e.c
			if t != src {
				// Largest subgraph containing eℓ: a parent in this SPIG,
				// built at the previous level of this construction.
				if c.gen == S.gen {
					inherit(c.v)
				}
			} else if ps := S.spigs[S.slots[bits.Len64(sub)-1].step]; ps != nil {
				// g − eℓ: lives in the SPIG of its largest edge label.
				if p := ps.FindByCode(v.Level-1, c.code); p != nil {
					inherit(p)
				}
			}
		}
	}
	v.Phi = intset.Normalize(phi)
	v.Ups = intset.Normalize(ups)
}

// DeleteEdge updates the SPIG set for the deletion of edge e_d (Algorithm 6
// lines 12-14): the SPIG S_d is removed entirely, and every vertex
// realization containing e_d is dropped from the remaining SPIGs (vertices
// with no surviving realization disappear). A surviving vertex keeps its
// fragment class and its Fragment List; only its Reps shrink. The edge's
// slot is freed.
func (S *Set) DeleteEdge(d int) {
	S.Remove(d)
	i := S.slotOf(d)
	if i < 0 {
		return
	}
	bit := uint64(1) << i
	for _, s := range S.spigs {
		for k := 1; k < len(s.levels); k++ {
			survivors := s.levels[k][:0]
			for _, v := range s.levels[k] {
				reps := v.Reps[:0]
				for _, rep := range v.Reps {
					if rep&bit == 0 {
						reps = append(reps, rep)
					}
				}
				if len(reps) > 0 {
					v.Reps = reps
					survivors = append(survivors, v)
				} else {
					delete(s.byCode[k], v.Code)
				}
			}
			clear(s.levels[k][len(survivors):])
			s.levels[k] = survivors
		}
	}
	S.free(i)
}

// Remove discards the SPIG for edge ℓ without touching others (used when a
// formulation step is rolled back entirely).
func (S *Set) Remove(ell int) {
	delete(S.spigs, ell)
	keep := S.order[:0]
	for _, l := range S.order {
		if l != ell {
			keep = append(keep, l)
		}
	}
	S.order = keep
}

// LevelVertices returns the vertices at level k across every SPIG in S,
// deduplicated by canonical code: the first SPIG's vertex stands for its
// class. Isomorphic vertices need not have identical Fragment Lists — after
// an epoch advance, vertices keep the classification of the epoch they were
// built in (SetClassifier) — but any one of them is a sound representative:
// an indexed vertex's entry id list is the class's exact FSG list at every
// epoch, and a NIF vertex's intersection is a superset that is verified
// before it answers anything.
func (S *Set) LevelVertices(k int) []*Vertex {
	seen := map[string]bool{}
	var out []*Vertex
	for _, l := range S.order {
		for _, v := range S.spigs[l].Level(k) {
			if !seen[v.Code] {
				seen[v.Code] = true
				out = append(out, v)
			}
		}
	}
	return out
}

// VerticesAtLevel counts level-k vertices across S (before cross-SPIG
// dedup), the N(k) of Lemma 1.
func (S *Set) VerticesAtLevel(k int) int {
	n := 0
	for _, s := range S.spigs {
		n += len(s.Level(k))
	}
	return n
}

// Dump renders a human-readable view of the SPIG (its levels, classes,
// realizations as step lists, and fragment lists) for debugging and the CLI.
func (s *SPIG) Dump() string {
	var b strings.Builder
	fmt.Fprintf(&b, "SPIG S%d (levels 1..%d)\n", s.L, s.MaxLevel())
	for k := 1; k <= s.MaxLevel(); k++ {
		if len(s.levels[k]) == 0 {
			continue
		}
		fmt.Fprintf(&b, "  level %d:\n", k)
		for _, v := range s.levels[k] {
			reps := make([][]int, len(v.Reps))
			for i, m := range v.Reps {
				reps[i] = s.set.Steps(m)
			}
			fmt.Fprintf(&b, "    %-10s cam=%s reps=%v", v.Kind, v.Code, reps)
			switch {
			case v.FreqID >= 0:
				fmt.Fprintf(&b, " a2fId=%d", v.FreqID)
			case v.DifID >= 0:
				fmt.Fprintf(&b, " a2iId=%d", v.DifID)
			default:
				fmt.Fprintf(&b, " Φ=%v Υ=%v", v.Phi, v.Ups)
			}
			b.WriteByte('\n')
		}
	}
	return b.String()
}

// Dump renders every SPIG in the set.
func (S *Set) Dump() string {
	var b strings.Builder
	for _, l := range S.order {
		b.WriteString(S.spigs[l].Dump())
	}
	return b.String()
}

// Target returns the vertex representing the entire current query fragment:
// the unique vertex at level |q| in the SPIG of the query's largest edge
// label.
func (S *Set) Target(q *query.Query) *Vertex {
	last := q.LastStep()
	s := S.spigs[last]
	if s == nil {
		return nil
	}
	lv := s.Level(q.Size())
	if len(lv) != 1 {
		return nil
	}
	return lv[0]
}
