package graph

import (
	"strconv"
	"strings"
	"sync"
)

// The paper identifies fragments by their CAM code (Huan & Wang's canonical
// adjacency matrix). We use the minimum DFS code of gSpan instead — also a
// complete canonical form (two graphs are isomorphic iff their minimum DFS
// codes are equal) and the natural choice here because the miner is
// gSpan-based. See DESIGN.md for the substitution note; CAMCode in
// cam_oracle_test.go is the literal construction, used for cross-validation. The string form
// (EncodeCode) is as complete as the code itself only because labels are
// escaped: a backslash precedes each of \ , ( ) [ ] inside a label, so no
// label can imitate a tuple boundary.

// CodeEdge is one 5-tuple (i, j, li, le, lj) of a DFS code for undirected
// graphs with node labels and optional edge labels (LE == "" on unlabeled
// edges, which is how the paper's node-labeled presentation is recovered).
// A forward edge has j == i_new (j > i); a backward edge has j < i and
// always originates at the rightmost vertex.
type CodeEdge struct {
	I, J       int
	LI, LE, LJ string
}

func (e CodeEdge) forward() bool { return e.J > e.I }

// LessExt orders two candidate extensions of the same code prefix according
// to gSpan's DFS lexicographic order:
//   - backward extensions precede forward extensions (both originate at or
//     below the rightmost vertex, and i_backward < j_forward always holds);
//   - among backward extensions (same source i = rightmost vertex), smaller
//     destination j is smaller, then the edge label decides;
//   - among forward extensions, a deeper source on the rightmost path (larger
//     i) is smaller; ties break on source label (first edge only), edge
//     label, then the new vertex's label.
func LessExt(a, b CodeEdge) bool {
	af, bf := a.forward(), b.forward()
	switch {
	case !af && bf:
		return true
	case af && !bf:
		return false
	case !af: // both backward
		if a.J != b.J {
			return a.J < b.J
		}
		return a.LE < b.LE // defensive: simple graphs have one edge per slot
	default: // both forward
		if a.I != b.I {
			return a.I > b.I
		}
		if a.LI != b.LI { // only possible for the very first edge (i==0)
			return a.LI < b.LI
		}
		if a.LE != b.LE {
			return a.LE < b.LE
		}
		return a.LJ < b.LJ
	}
}

// embSet stores one generation of DFS-search embeddings as fixed-stride rows
// over flat arrays: row i's code-vertex assignment lives at
// assign[i*stride : (i+1)*stride], its node->code-vertex inverse at
// inv[i*n : (i+1)*n], and its consumed-edge marks at used[i*m : (i+1)*m].
// Within one generation every embedding maps the same code prefix, so all
// rows share one stride. The flat layout lets the minimum-code search copy
// and extend embeddings without any per-embedding allocation.
type embSet struct {
	assign []int
	inv    []int
	used   []bool
	stride int // assign row width (code vertices mapped so far)
	n, m   int // graph node / edge counts (inv / used row widths)
	count  int
}

func (es *embSet) reset(stride, n, m int) {
	es.stride, es.n, es.m, es.count = stride, n, m, 0
	es.assign = es.assign[:0]
	es.inv = es.inv[:0]
	es.used = es.used[:0]
}

func (es *embSet) assignRow(i int) []int { return es.assign[i*es.stride : (i+1)*es.stride] }
func (es *embSet) invRow(i int) []int    { return es.inv[i*es.n : (i+1)*es.n] }
func (es *embSet) usedRow(i int) []bool  { return es.used[i*es.m : (i+1)*es.m] }

func extendInts(b []int, k int) []int {
	if cap(b)-len(b) < k {
		nb := make([]int, len(b), max(2*cap(b), len(b)+k))
		copy(nb, b)
		b = nb
	}
	return b[:len(b)+k]
}

func extendBools(b []bool, k int) []bool {
	if cap(b)-len(b) < k {
		nb := make([]bool, len(b), max(2*cap(b), len(b)+k))
		copy(nb, b)
		b = nb
	}
	return b[:len(b)+k]
}

// addRow appends one zeroed row and returns its index. The caller fills it.
func (es *embSet) addRow() int {
	i := es.count
	es.count++
	es.assign = extendInts(es.assign, es.stride)
	es.inv = extendInts(es.inv, es.n)
	es.used = extendBools(es.used, es.m)
	return i
}

// appendFrom copies row i of src into a fresh row of es. es.stride may
// exceed src.stride by one (forward extension); the extra assign slot is
// left for the caller.
func (es *embSet) appendFrom(src *embSet, i int) int {
	j := es.addRow()
	copy(es.assignRow(j), src.assignRow(i))
	copy(es.invRow(j), src.invRow(i))
	copy(es.usedRow(j), src.usedRow(i))
	return j
}

// minDFSScratch pools every transient of the minimum-code search; acquire
// via minDFSPool. Scratch is re-sliced and overwritten on reuse, so a state
// left dirty by a panic unwind is harmless.
type minDFSScratch struct {
	// off and eid form a flat edge-id table aligned with g.adj:
	// eid[off[u]+k] is the index in g.edges of the edge {u, g.adj[u][k]}.
	off, eid  []int
	fill      []int // edgeTable's per-node cursor into eid
	cur, next embSet
	code      []CodeEdge
	rmpath    []int
	names     []string // node -> label string, resolved once per minCode
}

var minDFSPool = sync.Pool{New: func() any { return new(minDFSScratch) }}

// edgeTable fills off and eid for g. It relies on adj[u] listing u's
// neighbors in the order their edges were added, which every Graph
// constructor keeps: the k-th entry of adj[u] is the k-th edge of g.edges
// incident to u.
func (sc *minDFSScratch) edgeTable(g *Graph) {
	off := sc.off[:0]
	total := 0
	for _, a := range g.adj {
		off = append(off, total)
		total += len(a)
	}
	eid := extendInts(sc.eid[:0], total)
	pos := append(sc.fill[:0], off...)
	for i, e := range g.edges {
		eid[pos[e.U]] = i
		pos[e.U]++
		eid[pos[e.V]] = i
		pos[e.V]++
	}
	sc.off, sc.eid, sc.fill = off, eid, pos
}

// edgeBetween returns the index in g.edges of the edge {u, w}, or -1 if g
// has no such edge. It scans the shorter of the two adjacency lists.
func (sc *minDFSScratch) edgeBetween(g *Graph, u, w int) int {
	if len(g.adj[w]) < len(g.adj[u]) {
		u, w = w, u
	}
	for k, x := range g.adj[u] {
		if x == w {
			return sc.eid[sc.off[u]+k]
		}
	}
	return -1
}

// MinDFSCode computes the minimum DFS code of g. g must be connected; for a
// single-node graph the code is a single pseudo-tuple carrying the label.
func MinDFSCode(g *Graph) []CodeEdge {
	sc := minDFSPool.Get().(*minDFSScratch)
	defer minDFSPool.Put(sc)
	// The scratch-backed code is recycled; hand the caller an owned copy.
	return append([]CodeEdge(nil), sc.minCode(g)...)
}

// minCode computes the minimum DFS code of g into sc.code and returns it;
// the result is valid until the scratch is reused.
func (sc *minDFSScratch) minCode(g *Graph) []CodeEdge {
	if g.NumEdges() == 0 {
		if g.NumNodes() == 1 {
			l := g.Label(0)
			sc.code = append(sc.code[:0], CodeEdge{I: 0, J: 0, LI: l, LJ: l})
			return sc.code
		}
		panic("graph: MinDFSCode on empty or edgeless multi-node graph")
	}
	sc.edgeTable(g)
	eid, off := sc.eid, sc.off
	// The code is built from label strings: ids are process-local and must
	// not decide any order.
	table := loadLabelNames()
	labels := sc.names[:0]
	for _, id := range g.labels {
		labels = append(labels, table.name(id))
	}
	sc.names = labels

	// Seed: minimal first tuple (0, 1, la, le, lb) over all edges (both
	// orientations).
	var first CodeEdge
	haveFirst := false
	for i, e := range g.edges {
		for _, o := range [2][2]int{{e.U, e.V}, {e.V, e.U}} {
			t := CodeEdge{I: 0, J: 1, LI: labels[o[0]], LE: g.EdgeLabelAt(i), LJ: labels[o[1]]}
			if !haveFirst || LessExt(t, first) {
				first, haveFirst = t, true
			}
		}
	}
	cur, next := &sc.cur, &sc.next
	cur.reset(2, g.NumNodes(), len(g.edges))
	for i, e := range g.edges {
		for _, o := range [2][2]int{{e.U, e.V}, {e.V, e.U}} {
			if labels[o[0]] != first.LI || labels[o[1]] != first.LJ || g.EdgeLabelAt(i) != first.LE {
				continue
			}
			row := cur.addRow()
			as, inv, used := cur.assignRow(row), cur.invRow(row), cur.usedRow(row)
			as[0], as[1] = o[0], o[1]
			for k := range inv {
				inv[k] = -1
			}
			clear(used)
			inv[o[0]], inv[o[1]] = 0, 1
			used[i] = true
		}
	}

	code := append(sc.code[:0], first)
	rmpath := append(sc.rmpath[:0], 0, 1) // code vertex indices along the rightmost path

	for len(code) < len(g.edges) {
		// Gather the minimal extension over all live embeddings.
		var best CodeEdge
		haveBest := false
		consider := func(t CodeEdge) {
			if !haveBest || LessExt(t, best) {
				best, haveBest = t, true
			}
		}
		r := rmpath[len(rmpath)-1]
		for e := 0; e < cur.count; e++ {
			assign, inv, used := cur.assignRow(e), cur.invRow(e), cur.usedRow(e)
			// Backward extensions: rightmost vertex -> earlier rmpath vertex.
			gv := assign[r]
			for _, pathV := range rmpath[:len(rmpath)-1] {
				gw := assign[pathV]
				if i := sc.edgeBetween(g, gv, gw); i >= 0 && !used[i] {
					consider(CodeEdge{I: r, J: pathV, LI: labels[gv], LE: g.EdgeLabelAt(i), LJ: labels[gw]})
				}
			}
			// Forward extensions: from any rightmost-path vertex to an
			// unmapped neighbor.
			for _, pathV := range rmpath {
				gu := assign[pathV]
				for k, gw := range g.adj[gu] {
					if inv[gw] == -1 {
						consider(CodeEdge{I: pathV, J: len(assign), LI: labels[gu], LE: g.EdgeLabelAt(eid[off[gu]+k]), LJ: labels[gw]})
					}
				}
			}
		}
		if !haveBest {
			// Every edge reachable from the seed is consumed, yet some remain.
			panic("graph: MinDFSCode on disconnected graph")
		}

		// Keep only embeddings realizing the best extension, extended into
		// the swap buffer (forward extensions widen the assign stride by 1).
		if best.forward() {
			next.reset(cur.stride+1, cur.n, cur.m)
		} else {
			next.reset(cur.stride, cur.n, cur.m)
		}
		for e := 0; e < cur.count; e++ {
			if best.forward() {
				gu := cur.assignRow(e)[best.I]
				inv := cur.invRow(e)
				for k, gw := range g.adj[gu] {
					i := eid[off[gu]+k]
					if inv[gw] == -1 && labels[gw] == best.LJ && g.EdgeLabelAt(i) == best.LE {
						j := next.appendFrom(cur, e)
						nas, ninv, nused := next.assignRow(j), next.invRow(j), next.usedRow(j)
						nas[len(nas)-1] = gw
						ninv[gw] = len(nas) - 1
						nused[i] = true
					}
				}
			} else {
				// The edge label must match the chosen tuple, exactly as in
				// the forward branch: without this check an embedding could
				// consume a labeled edge to realize an unlabeled backward
				// tuple, silently corrupting the code (two non-isomorphic
				// graphs differing only in a cycle-closing edge label would
				// collide).
				assign, used := cur.assignRow(e), cur.usedRow(e)
				gv, gw := assign[best.I], assign[best.J]
				if i := sc.edgeBetween(g, gv, gw); i >= 0 && !used[i] && g.EdgeLabelAt(i) == best.LE {
					j := next.appendFrom(cur, e)
					next.usedRow(j)[i] = true
				}
			}
		}
		cur, next = next, cur
		code = append(code, best)
		if best.forward() {
			// Truncate rmpath at the source and append the new vertex.
			for i, v := range rmpath {
				if v == best.I {
					rmpath = rmpath[:i+1]
					rmpath = append(rmpath, best.J)
					break
				}
			}
		}
	}
	sc.code, sc.rmpath = code, rmpath
	if cur.stride != g.NumNodes() {
		// The edges are one component, but some node has none of them.
		panic("graph: MinDFSCode on disconnected graph")
	}
	return code
}

// CanonicalCode returns a string serialization of g's minimum DFS code. Two
// graphs have equal canonical codes iff they are isomorphic (node and edge
// labels included). This string plays the role of cam(g) throughout the
// reproduction.
func CanonicalCode(g *Graph) string {
	sc := minDFSPool.Get().(*minDFSScratch)
	defer minDFSPool.Put(sc)
	return EncodeCode(sc.minCode(g))
}

// codeSpecial reports whether EncodeCode escapes c inside a label: c is one
// of the code's delimiters or the escape byte itself.
func codeSpecial(c byte) bool {
	switch c {
	case '\\', ',', '(', ')', '[', ']':
		return true
	}
	return false
}

// EncodeCode serializes a DFS code deterministically: one
// "(i,j,li,lj)" group per unlabeled tuple and one "(i,j,li,[le],lj)" group
// per labeled tuple. Inside a label each of the bytes \ , ( ) [ ] is
// preceded by a backslash, so distinct codes never render alike; a label
// free of those bytes is written as is.
func EncodeCode(code []CodeEdge) string {
	// The exact length of a code without escapes: the string keeps no slack
	// (codes are held as index keys), and only an escaping label grows it.
	n := 0
	for _, e := range code {
		n += len("(,,,)") + decimalLen(e.I) + decimalLen(e.J) + len(e.LI) + len(e.LJ)
		if e.LE != "" {
			n += len("[],") + len(e.LE)
		}
	}
	var b strings.Builder
	b.Grow(n)
	var num [20]byte
	for _, e := range code {
		b.WriteByte('(')
		b.Write(strconv.AppendInt(num[:0], int64(e.I), 10))
		b.WriteByte(',')
		b.Write(strconv.AppendInt(num[:0], int64(e.J), 10))
		b.WriteByte(',')
		writeCodeLabel(&b, e.LI)
		b.WriteByte(',')
		if e.LE != "" {
			b.WriteByte('[')
			writeCodeLabel(&b, e.LE)
			b.WriteString("],")
		}
		writeCodeLabel(&b, e.LJ)
		b.WriteByte(')')
	}
	return b.String()
}

// decimalLen returns the length of the decimal form of the non-negative x.
func decimalLen(x int) int {
	n := 1
	for ; x >= 10; x /= 10 {
		n++
	}
	return n
}

// writeCodeLabel writes one label of a code with a backslash before each
// of its codeSpecial bytes.
func writeCodeLabel(b *strings.Builder, l string) {
	for i := 0; i < len(l); i++ {
		if codeSpecial(l[i]) {
			b.WriteString(l[:i])
			for ; i < len(l); i++ {
				if codeSpecial(l[i]) {
					b.WriteByte('\\')
				}
				b.WriteByte(l[i])
			}
			return
		}
	}
	b.WriteString(l)
}

// CodeGraph reconstructs a graph from a DFS code. The result is isomorphic to
// any graph whose minimum DFS code equals the input (for minimum codes).
func CodeGraph(code []CodeEdge) *Graph {
	g := New(-1)
	if len(code) == 1 && code[0].I == code[0].J {
		g.AddNode(code[0].LI)
		return g
	}
	// Tuples repeat their nodes' labels, so a label is interned only when
	// it differs from the node's current one and from the last interned.
	last, lastID := "", emptyLabel
	setLabel := func(v int, l string) {
		if LabelName(g.labels[v]) == l {
			return
		}
		if l != last {
			last, lastID = l, InternLabel(l)
		}
		g.labels[v] = lastID
	}
	for _, e := range code {
		for g.NumNodes() <= max(e.I, e.J) {
			g.AddNodeID(emptyLabel)
		}
		setLabel(e.I, e.LI)
		setLabel(e.J, e.LJ)
		if err := g.AddLabeledEdge(e.I, e.J, e.LE); err != nil {
			panic(err)
		}
	}
	return g
}

// IsMinCode reports whether the given code is the minimum DFS code of the
// graph it denotes. Used by the miner to prune duplicate DFS-tree branches.
func IsMinCode(code []CodeEdge) bool {
	g := CodeGraph(code)
	sc := minDFSPool.Get().(*minDFSScratch)
	defer minDFSPool.Put(sc)
	minCode := sc.minCode(g)
	for i := range code {
		if code[i] != minCode[i] {
			return false
		}
	}
	return true
}
