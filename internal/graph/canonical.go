package graph

import (
	"fmt"
	"strings"
	"sync"
)

// The paper identifies fragments by their CAM code (Huan & Wang's canonical
// adjacency matrix). We use the minimum DFS code of gSpan instead — also a
// complete canonical form (two graphs are isomorphic iff their minimum DFS
// codes are equal) and the natural choice here because the miner is
// gSpan-based. See DESIGN.md for the substitution note; CAMCode in cam.go is
// the literal construction, used for cross-validation.

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
// via minDFSPool. Scratch is re-sliced and cleared on reuse, so a state left
// dirty by a panic unwind is harmless.
type minDFSScratch struct {
	edgeIdx   map[Edge]int
	cur, next embSet
	code      []CodeEdge
	rmpath    []int
}

var minDFSPool = sync.Pool{New: func() any { return new(minDFSScratch) }}

// MinDFSCode computes the minimum DFS code of g. g must be connected; for a
// single-node graph the code is a single pseudo-tuple carrying the label.
func MinDFSCode(g *Graph) []CodeEdge {
	if g.NumEdges() == 0 {
		if g.NumNodes() == 1 {
			return []CodeEdge{{I: 0, J: 0, LI: g.labels[0], LJ: g.labels[0]}}
		}
		panic("graph: MinDFSCode on empty or edgeless multi-node graph")
	}
	if !g.Connected() {
		panic("graph: MinDFSCode on disconnected graph")
	}

	sc := minDFSPool.Get().(*minDFSScratch)
	defer minDFSPool.Put(sc)
	if sc.edgeIdx == nil {
		sc.edgeIdx = make(map[Edge]int, len(g.edges))
	} else {
		clear(sc.edgeIdx)
	}
	edgeIdx := sc.edgeIdx
	for i, e := range g.edges {
		edgeIdx[e] = i
	}
	labelOf := func(u, v int) string {
		if !g.edgeLabeled() { // no edge index lookup on unlabeled graphs
			return ""
		}
		return g.EdgeLabelAt(edgeIdx[normEdge(u, v)])
	}

	// Seed: minimal first tuple (0, 1, la, le, lb) over all edges (both
	// orientations).
	var first CodeEdge
	haveFirst := false
	for i, e := range g.edges {
		for _, o := range [2][2]int{{e.U, e.V}, {e.V, e.U}} {
			t := CodeEdge{I: 0, J: 1, LI: g.labels[o[0]], LE: g.EdgeLabelAt(i), LJ: g.labels[o[1]]}
			if !haveFirst || LessExt(t, first) {
				first, haveFirst = t, true
			}
		}
	}
	cur, next := &sc.cur, &sc.next
	cur.reset(2, g.NumNodes(), len(g.edges))
	for i, e := range g.edges {
		for _, o := range [2][2]int{{e.U, e.V}, {e.V, e.U}} {
			if g.labels[o[0]] != first.LI || g.labels[o[1]] != first.LJ || g.EdgeLabelAt(i) != first.LE {
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
			used[edgeIdx[normEdge(o[0], o[1])]] = true
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
				if g.HasEdge(gv, gw) && !used[edgeIdx[normEdge(gv, gw)]] {
					consider(CodeEdge{I: r, J: pathV, LI: g.labels[gv], LE: labelOf(gv, gw), LJ: g.labels[gw]})
				}
			}
			// Forward extensions: from any rightmost-path vertex to an
			// unmapped neighbor.
			for _, pathV := range rmpath {
				gu := assign[pathV]
				for _, gw := range g.adj[gu] {
					if inv[gw] == -1 {
						consider(CodeEdge{I: pathV, J: len(assign), LI: g.labels[gu], LE: labelOf(gu, gw), LJ: g.labels[gw]})
					}
				}
			}
		}
		if !haveBest {
			panic("graph: MinDFSCode ran out of extensions on a connected graph")
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
				for _, gw := range g.adj[gu] {
					if inv[gw] == -1 && g.labels[gw] == best.LJ && labelOf(gu, gw) == best.LE {
						j := next.appendFrom(cur, e)
						nas, ninv, nused := next.assignRow(j), next.invRow(j), next.usedRow(j)
						nas[len(nas)-1] = gw
						ninv[gw] = len(nas) - 1
						nused[edgeIdx[normEdge(gu, gw)]] = true
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
				if g.HasEdge(gv, gw) && !used[edgeIdx[normEdge(gv, gw)]] && labelOf(gv, gw) == best.LE {
					j := next.appendFrom(cur, e)
					next.usedRow(j)[edgeIdx[normEdge(gv, gw)]] = true
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
	// The scratch-backed code is recycled; hand the caller an owned copy.
	return append([]CodeEdge(nil), code...)
}

// CanonicalCode returns a string serialization of g's minimum DFS code. Two
// graphs have equal canonical codes iff they are isomorphic (node and edge
// labels included). This string plays the role of cam(g) throughout the
// reproduction.
func CanonicalCode(g *Graph) string {
	return EncodeCode(MinDFSCode(g))
}

// EncodeCode serializes a DFS code deterministically.
func EncodeCode(code []CodeEdge) string {
	var b strings.Builder
	for _, e := range code {
		if e.LE == "" {
			fmt.Fprintf(&b, "(%d,%d,%s,%s)", e.I, e.J, e.LI, e.LJ)
		} else {
			fmt.Fprintf(&b, "(%d,%d,%s,[%s],%s)", e.I, e.J, e.LI, e.LE, e.LJ)
		}
	}
	return b.String()
}

// CodeGraph reconstructs a graph from a DFS code. The result is isomorphic to
// any graph whose minimum DFS code equals the input (for minimum codes).
func CodeGraph(code []CodeEdge) *Graph {
	g := New(-1)
	if len(code) == 1 && code[0].I == code[0].J {
		g.AddNode(code[0].LI)
		return g
	}
	for _, e := range code {
		for g.NumNodes() <= max(e.I, e.J) {
			g.AddNode("")
		}
		g.labels[e.I] = e.LI
		g.labels[e.J] = e.LJ
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
	minCode := MinDFSCode(g)
	for i := range code {
		if code[i] != minCode[i] {
			return false
		}
	}
	return true
}
