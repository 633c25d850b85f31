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
//     and the vertex keeps every realizing edge-label set so that query
//     modification (Algorithm 6) can drop exactly the realizations containing
//     a deleted edge.
package spig

import (
	"context"
	"fmt"
	"sort"
	"strconv"
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

	// Reps holds every edge-label set (sorted step labels) realizing this
	// class — the Edge Lists L_E(g) of the paper.
	Reps [][]int

	// Fragment List (Definition 4). Kind tells which case applies.
	Kind   index.Kind
	FreqID int   // a2fId(g) when Kind == KindFrequent, else -1
	DifID  int   // a2iId(g) when Kind == KindDIF, else -1
	Phi    []int // frequent subgraph id set Φ(g) (largest frequent subgraphs)
	Ups    []int // DIF subgraph id set Υ(g) (all DIF subgraphs)
}

// ContainsStep reports whether every realization of the vertex uses the
// given edge step; AnyRepWithout returns a realization avoiding it, if any.
func (v *Vertex) ContainsStep(step int) bool {
	for _, rep := range v.Reps {
		if !intset.Contains(rep, step) {
			return false
		}
	}
	return true
}

// SPIG is the spindle-shaped graph of one formulation step.
type SPIG struct {
	L      int // the new edge's step label
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

// fragMemo caches the materialized fragment and canonical code of one step
// subset. Step labels are never reused by a Query (deletes and relabels
// allocate fresh steps), so a step set identifies an immutable fragment and
// entries never go stale — deleted steps simply become unreachable keys.
type fragMemo struct {
	frag *graph.Graph
	code string
}

// maxFragMemo bounds the cross-action fragment memo; past it the memo is
// reset wholesale (long editing sessions with many deletes/relabels would
// otherwise accumulate unreachable entries).
const maxFragMemo = 1 << 14

// Set is the SPIG set S maintained across formulation steps. A Set serves a
// single formulation session over a single *query.Query and, like the engine
// that owns it, is not safe for concurrent use.
type Set struct {
	spigs map[int]*SPIG
	order []int // ascending ℓ
	idx   Classifier

	// Scratch reused across user actions: one formulation session issues
	// hundreds of ConstructCtx calls over overlapping step subsets, and the
	// same subsets recur every time the query grows by an edge. All scratch
	// is invisible in results — vertices own their Reps and the memo's
	// fragments are immutable.
	memoQ   *query.Query        // query the memo was built against
	memo    map[string]fragMemo // stepsKey -> fragment + canonical code
	subsets [][]int             // current-level subset scratch
	nextSub [][]int             // next-level subset scratch
	arena   []int               // backing storage carved into subset slices
	seen    map[string]bool     // next-level dedup scratch
	keyBuf  []byte              // stepsKey scratch
	subBuf  []int               // classify's per-parent subset scratch

	// fragments counts the fragments fragAndCode materialized, for the
	// spig_build span's count of them.
	fragments int64
}

// NewSet returns an empty SPIG set bound to the action-aware indexes.
func NewSet(idx Classifier) *Set {
	return &Set{spigs: map[int]*SPIG{}, idx: idx}
}

// stepsKey renders a sorted step set into the reusable key buffer. The
// returned slice is valid until the next call; map lookups on string(key)
// do not allocate.
func (S *Set) stepsKey(steps []int) []byte {
	b := S.keyBuf[:0]
	for i, s := range steps {
		if i > 0 {
			b = append(b, ',')
		}
		b = strconv.AppendInt(b, int64(s), 10)
	}
	S.keyBuf = b
	return b
}

// fragAndCode returns the fragment induced by the sorted step set and its
// canonical code, memoized across user actions. computed reports whether the
// code was computed on this call (for trace accounting). ok is false for a
// disconnected subset, which is never materialized.
func (S *Set) fragAndCode(q *query.Query, steps []int) (frag *graph.Graph, code string, computed, ok bool) {
	if S.memoQ != q || len(S.memo) > maxFragMemo {
		S.memoQ = q
		S.memo = make(map[string]fragMemo)
	}
	key := S.stepsKey(steps)
	if m, hit := S.memo[string(key)]; hit {
		return m.frag, m.code, false, true
	}
	frag, connected := q.FragmentOf(steps)
	if !connected {
		return nil, "", false, false
	}
	S.fragments++
	code = graph.CanonicalCode(frag)
	S.memo[string(key)] = fragMemo{frag: frag, code: code}
	return frag, code, true, true
}

// carve allocates an n-int slice from the construction arena. Slices carved
// earlier stay valid when the arena grows (they keep pointing into the old
// chunk); the arena is rewound only at the start of a construction, when no
// prior carved slice is live.
func (S *Set) carve(n int) []int {
	if len(S.arena)+n > cap(S.arena) {
		c := 2 * cap(S.arena)
		if c < 1024 {
			c = 1024
		}
		if c < n {
			c = n
		}
		S.arena = make([]int, 0, c)
	}
	off := len(S.arena)
	S.arena = S.arena[:off+n]
	return S.arena[off : off+n : off+n]
}

// without returns src minus element t in the reusable subBuf scratch; the
// result is valid until the next call.
func (S *Set) without(src []int, t int) []int {
	b := S.subBuf[:0]
	for _, x := range src {
		if x != t {
			b = append(b, x)
		}
	}
	S.subBuf = b
	return b
}

// carveInsert carves a copy of the sorted set src with u inserted in order.
// u must not already be in src.
func (S *Set) carveInsert(src []int, u int) []int {
	ns := S.carve(len(src) + 1)
	i := 0
	for i < len(src) && src[i] < u {
		ns[i] = src[i]
		i++
	}
	ns[i] = u
	copy(ns[i+1:], src[i:])
	return ns
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

// repKey canonicalizes a sorted step set for dedup.
func repKey(steps []int) string {
	var b strings.Builder
	for i, s := range steps {
		if i > 0 {
			b.WriteByte(',')
		}
		b.WriteString(strconv.Itoa(s))
	}
	return b.String()
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
// subsets), and the span itself counts the realizations enumerated (step
// subsets, every level) and the fragments materialized for them. The
// construction itself is unaffected by ctx.
func (S *Set) ConstructCtx(ctx context.Context, q *query.Query, ell int) (*SPIG, error) {
	sp := trace.SpanFromContext(ctx)
	if _, ok := q.Edge(ell); !ok {
		return nil, fmt.Errorf("spig: query has no edge with step %d", ell)
	}
	if _, ok := S.spigs[ell]; ok {
		return nil, fmt.Errorf("spig: SPIG for e%d already constructed", ell)
	}
	// A SPIG ranges over the query fragment as of step ℓ: only edges with
	// step labels ≤ ℓ participate. In the ordinary flow every current edge
	// qualifies; when SPIGs are rebuilt out of order (node relabeling), the
	// filter preserves the "each subgraph lives in the SPIG of its largest
	// edge label" invariant.
	n := 0
	for _, s := range q.Steps() {
		if s <= ell {
			n++
		}
	}
	adj := map[int][]int{}
	for s, neighbors := range q.AdjacentSteps() {
		if s > ell {
			continue
		}
		for _, t := range neighbors {
			if t <= ell {
				adj[s] = append(adj[s], t)
			}
		}
	}

	s := &SPIG{
		L:      ell,
		levels: make([][]*Vertex, n+1),
		byCode: make([]map[string]*Vertex, n+1),
	}
	for k := 1; k <= n; k++ {
		s.byCode[k] = map[string]*Vertex{}
	}

	// Level-by-level growth of connected step subsets containing eℓ. Subset
	// slices are carved from the reusable arena; fragments and codes come
	// from the cross-action memo (the same subsets recur at every step of a
	// growing query).
	var canonDur, probeDur time.Duration
	var canonN, probeN, realizations int64
	fragments0 := S.fragments
	S.arena = S.arena[:0]
	subsets := S.subsets[:0]
	first := S.carve(1)
	first[0] = ell
	subsets = append(subsets, first)
	for k := 1; k <= n; k++ {
		realizations += int64(len(subsets))
		// Group this level's subsets into isomorphism classes.
		for _, steps := range subsets {
			var t0 time.Time
			if sp != nil {
				t0 = time.Now()
			}
			frag, code, computed, ok := S.fragAndCode(q, steps)
			if sp != nil && computed {
				canonDur += time.Since(t0)
				canonN++
			}
			if !ok {
				// Cannot happen: subsets grow by edge adjacency.
				return nil, fmt.Errorf("spig: internal: disconnected subset %v", steps)
			}
			v := s.byCode[k][code]
			if v == nil {
				v = &Vertex{
					SpigLabel: ell, Level: k, Code: code, Frag: frag,
					FreqID: -1, DifID: -1,
				}
				s.byCode[k][code] = v
				s.levels[k] = append(s.levels[k], v)
			}
			v.Reps = append(v.Reps, intset.Clone(steps))
		}
		// Fragment lists for the finished level (parents at k-1 are final).
		var t1 time.Time
		if sp != nil {
			t1 = time.Now()
		}
		for _, v := range s.levels[k] {
			S.classify(q, s, v)
		}
		if sp != nil {
			probeDur += time.Since(t1)
			probeN += int64(len(s.levels[k]))
		}
		if k == n {
			break
		}
		// Next level's subsets.
		if S.seen == nil {
			S.seen = map[string]bool{}
		} else {
			clear(S.seen)
		}
		next := S.nextSub[:0]
		for _, steps := range subsets {
			for _, t := range steps {
				for _, u := range adj[t] {
					if intset.Contains(steps, u) {
						continue
					}
					ns := S.carveInsert(steps, u)
					key := S.stepsKey(ns)
					if !S.seen[string(key)] {
						S.seen[string(key)] = true
						next = append(next, ns)
					}
				}
			}
		}
		S.nextSub = subsets // recycle the finished level's header slice
		subsets = next
	}
	S.subsets = subsets[:0]

	if sp != nil {
		sp.Add("realizations", realizations)
		sp.Add("fragments", S.fragments-fragments0)
		sp.Record(trace.KindCanonical, canonDur, "codes", canonN)
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
// (largest subgraphs containing eℓ) and the cross-SPIG vertex of g−eℓ.
func (S *Set) classify(q *query.Query, s *SPIG, v *Vertex) {
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
		for _, t := range rep {
			// A disconnected rep − t has no vertex to inherit from; a
			// connected one is almost always a memo hit.
			sub := S.without(rep, t)
			if !q.StepsConnected(sub) {
				continue
			}
			_, code, _, ok := S.fragAndCode(q, sub)
			if !ok {
				continue
			}
			if t != s.L {
				// Largest subgraph containing eℓ: a parent in this SPIG.
				if p := s.FindByCode(v.Level-1, code); p != nil {
					inherit(p)
				}
			} else {
				// g − eℓ: lives in the SPIG of its largest edge label.
				lp := sub[len(sub)-1]
				if ps := S.spigs[lp]; ps != nil {
					if p := ps.FindByCode(v.Level-1, code); p != nil {
						inherit(p)
					}
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
// fragment class and its Fragment List; only its Reps shrink.
func (S *Set) DeleteEdge(d int) {
	delete(S.spigs, d)
	keep := S.order[:0]
	for _, l := range S.order {
		if l != d {
			keep = append(keep, l)
		}
	}
	S.order = keep

	for _, s := range S.spigs {
		for k := 1; k < len(s.levels); k++ {
			var survivors []*Vertex
			for _, v := range s.levels[k] {
				var reps [][]int
				for _, rep := range v.Reps {
					if !intset.Contains(rep, d) {
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
			s.levels[k] = survivors
		}
	}
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
// realizations, and fragment lists) for debugging and the CLI.
func (s *SPIG) Dump() string {
	var b strings.Builder
	fmt.Fprintf(&b, "SPIG S%d (levels 1..%d)\n", s.L, s.MaxLevel())
	for k := 1; k <= s.MaxLevel(); k++ {
		if len(s.levels[k]) == 0 {
			continue
		}
		fmt.Fprintf(&b, "  level %d:\n", k)
		for _, v := range s.levels[k] {
			fmt.Fprintf(&b, "    %-10s cam=%s reps=%v", v.Kind, v.Code, v.Reps)
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
