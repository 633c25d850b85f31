// Package mining implements the frequent-fragment machinery the paper's
// indexes are built from: a gSpan miner (Yan & Han [13]) producing every
// frequent fragment with its FSG identifier set, and the extraction of
// discriminative infrequent fragments (DIFs) from the negative border of the
// frequent set (§III of the paper).
package mining

import (
	"fmt"
	"sort"

	"prague/internal/graph"
)

// Fragment is a mined fragment: a connected subgraph of at least one data
// graph, its canonical code, and the set of data graphs containing it.
type Fragment struct {
	Graph   *graph.Graph
	Code    string
	Support int   // |Dg| = number of FSGs
	FSGIds  []int // sorted identifiers of the fragment support graphs
}

// Size returns the fragment size |g| (edge count), following the paper.
func (f *Fragment) Size() int { return f.Graph.Size() }

// Options configures the miner.
type Options struct {
	// MinSupportRatio is α: a fragment is frequent iff sup(g) ≥ α·|D|.
	// Must be in (0, 1).
	MinSupportRatio float64
	// MaxSize caps the size (edge count) of mined fragments. Frequent
	// fragments are mined up to MaxSize and DIFs up to MaxSize as well.
	// Zero means the default of 10 (the paper's visual queries do not
	// exceed 10 edges).
	MaxSize int
	// IncludeZeroSupportPairs, when true, also emits size-1 DIFs for every
	// label pair over the database's label vocabulary that appears in no
	// data graph (support 0, like dif2 in the paper's Figure 4). These
	// make queries with impossible edges prune to empty immediately.
	IncludeZeroSupportPairs bool
}

// Result is the output of Mine.
type Result struct {
	Frequent  []*Fragment          // every frequent fragment, sizes 1..MaxSize
	DIFs      []*Fragment          // discriminative infrequent fragments
	ByCode    map[string]*Fragment // canonical code -> frequent fragment
	DIFByCode map[string]*Fragment // canonical code -> DIF
	MinSup    int                  // absolute minimum support ⌈α·|D|⌉
	MaxSize   int
	NumGraphs int
}

// IsFrequent reports whether the fragment with the given canonical code is
// frequent.
func (r *Result) IsFrequent(code string) bool { _, ok := r.ByCode[code]; return ok }

// IsDIF reports whether the fragment with the given canonical code is a DIF.
func (r *Result) IsDIF(code string) bool { _, ok := r.DIFByCode[code]; return ok }

// embedding maps the vertices of a DFS code to nodes of one data graph; used
// holds the consumed data-graph edges as a bitset.
type embedding struct {
	gid    int
	assign []int
	used   []uint64
}

func (e *embedding) usedEdge(i int) bool { return e.used[i/64]&(1<<(i%64)) != 0 }
func (e *embedding) extend(node int, edgeIdx int) *embedding {
	ne := &embedding{gid: e.gid}
	ne.assign = append(append(make([]int, 0, len(e.assign)+1), e.assign...), node)
	if node < 0 {
		ne.assign = ne.assign[:len(e.assign)] // backward edge: no new vertex
	}
	ne.used = append([]uint64(nil), e.used...)
	ne.used[edgeIdx/64] |= 1 << (edgeIdx % 64)
	return ne
}

type miner struct {
	db      []*graph.Graph
	minSup  int
	maxSize int

	edgeNum []map[graph.Edge]int

	frequent []*Fragment
	byCode   map[string]*Fragment
	border   map[string]*Fragment // negative-border candidates by code
}

// Mine runs gSpan over db and extracts frequent fragments and DIFs.
func Mine(db []*graph.Graph, opt Options) (*Result, error) {
	if opt.MinSupportRatio <= 0 || opt.MinSupportRatio >= 1 {
		return nil, fmt.Errorf("mining: MinSupportRatio must be in (0,1), got %v", opt.MinSupportRatio)
	}
	if len(db) == 0 {
		return nil, fmt.Errorf("mining: empty database")
	}
	maxSize := opt.MaxSize
	if maxSize == 0 {
		maxSize = 10
	}
	minSup := int(opt.MinSupportRatio * float64(len(db)))
	if float64(minSup) < opt.MinSupportRatio*float64(len(db)) {
		minSup++
	}
	if minSup < 1 {
		minSup = 1
	}

	m := &miner{
		db:      db,
		minSup:  minSup,
		maxSize: maxSize,
		byCode:  map[string]*Fragment{},
		border:  map[string]*Fragment{},
	}
	m.edgeNum = make([]map[graph.Edge]int, len(db))
	for i, g := range db {
		m.edgeNum[i] = make(map[graph.Edge]int, g.NumEdges())
		for j, e := range g.Edges() {
			m.edgeNum[i][e] = j
		}
	}

	m.run()

	res := &Result{
		Frequent:  m.frequent,
		ByCode:    m.byCode,
		DIFByCode: map[string]*Fragment{},
		MinSup:    minSup,
		MaxSize:   maxSize,
		NumGraphs: len(db),
	}

	// Second pass: a negative-border candidate is a DIF iff every maximal
	// proper connected subgraph is frequent (⇒ all subgraphs frequent, by
	// downward closure). Size-1 infrequent fragments are DIFs by
	// definition.
	var borderCodes []string
	for code := range m.border {
		borderCodes = append(borderCodes, code)
	}
	sort.Strings(borderCodes)
	for _, code := range borderCodes {
		frag := m.border[code]
		if frag.Size() == 1 || m.allMaximalSubgraphsFrequent(frag.Graph) {
			res.DIFs = append(res.DIFs, frag)
			res.DIFByCode[code] = frag
		}
	}

	if opt.IncludeZeroSupportPairs {
		m.addZeroSupportPairs(res)
	}

	sort.Slice(res.DIFs, func(i, j int) bool {
		if res.DIFs[i].Size() != res.DIFs[j].Size() {
			return res.DIFs[i].Size() < res.DIFs[j].Size()
		}
		return res.DIFs[i].Code < res.DIFs[j].Code
	})
	sort.Slice(res.Frequent, func(i, j int) bool {
		if res.Frequent[i].Size() != res.Frequent[j].Size() {
			return res.Frequent[i].Size() < res.Frequent[j].Size()
		}
		return res.Frequent[i].Code < res.Frequent[j].Code
	})
	return res, nil
}

func (m *miner) allMaximalSubgraphsFrequent(g *graph.Graph) bool {
	hadConnected := false
	for _, e := range g.Edges() {
		sub, err := g.DeleteEdge(e.U, e.V)
		if err != nil {
			return false
		}
		if !sub.Connected() {
			continue
		}
		hadConnected = true
		if _, ok := m.byCode[graph.CanonicalCode(sub)]; !ok {
			return false
		}
	}
	return hadConnected
}

// run seeds gSpan with all frequent single-edge codes and recurses; it also
// records every infrequent single edge present in the database as a border
// candidate.
func (m *miner) run() {
	type seed struct {
		la, le, lb string
	}
	seedEmbs := map[seed][]*embedding{}
	for gid, g := range m.db {
		for ei, e := range g.Edges() {
			for _, o := range [2][2]int{{e.U, e.V}, {e.V, e.U}} {
				la, lb := g.Label(o[0]), g.Label(o[1])
				if la > lb {
					continue // canonical first tuple has la ≤ lb
				}
				emb := &embedding{
					gid:    gid,
					assign: []int{o[0], o[1]},
					used:   make([]uint64, (g.NumEdges()+63)/64),
				}
				emb.used[ei/64] |= 1 << (ei % 64)
				k := seed{la, g.EdgeLabelAt(ei), lb}
				seedEmbs[k] = append(seedEmbs[k], emb)
			}
		}
	}

	var seeds []seed
	for s := range seedEmbs {
		seeds = append(seeds, s)
	}
	sort.Slice(seeds, func(i, j int) bool {
		if seeds[i].la != seeds[j].la {
			return seeds[i].la < seeds[j].la
		}
		if seeds[i].le != seeds[j].le {
			return seeds[i].le < seeds[j].le
		}
		return seeds[i].lb < seeds[j].lb
	})

	for _, s := range seeds {
		embs := seedEmbs[s]
		code := []graph.CodeEdge{{I: 0, J: 1, LI: s.la, LE: s.le, LJ: s.lb}}
		ids := distinctGids(embs)
		frag := m.makeFragment(code, ids)
		if len(ids) >= m.minSup {
			m.frequent = append(m.frequent, frag)
			m.byCode[frag.Code] = frag
			m.grow(code, embs)
		} else {
			m.border[frag.Code] = frag
		}
	}
}

// grow performs one gSpan expansion step from a minimal frequent code.
func (m *miner) grow(code []graph.CodeEdge, embs []*embedding) {
	if len(code) >= m.maxSize {
		return
	}
	rmpath := rightmostPath(code)
	r := rmpath[len(rmpath)-1]

	type extKey struct{ t graph.CodeEdge }
	extEmbs := map[extKey][]*embedding{}

	for _, emb := range embs {
		g := m.db[emb.gid]
		inv := make(map[int]int, len(emb.assign))
		for ci, gv := range emb.assign {
			inv[gv] = ci
		}
		gr := emb.assign[r]
		// Backward extensions from the rightmost vertex to rightmost-path
		// vertices.
		for _, pv := range rmpath[:len(rmpath)-1] {
			gw := emb.assign[pv]
			if g.HasEdge(gr, gw) {
				ei := m.edgeNum[emb.gid][normEdge(gr, gw)]
				if !emb.usedEdge(ei) {
					t := graph.CodeEdge{I: r, J: pv, LI: g.Label(gr), LE: g.EdgeLabelAt(ei), LJ: g.Label(gw)}
					extEmbs[extKey{t}] = append(extEmbs[extKey{t}], emb.backward(ei))
				}
			}
		}
		// Forward extensions from rightmost-path vertices to unmapped
		// neighbors.
		for _, pv := range rmpath {
			gu := emb.assign[pv]
			for _, gw := range g.Neighbors(gu) {
				if _, mapped := inv[gw]; mapped {
					continue
				}
				ei := m.edgeNum[emb.gid][normEdge(gu, gw)]
				if emb.usedEdge(ei) {
					continue
				}
				t := graph.CodeEdge{I: pv, J: len(emb.assign), LI: g.Label(gu), LE: g.EdgeLabelAt(ei), LJ: g.Label(gw)}
				extEmbs[extKey{t}] = append(extEmbs[extKey{t}], emb.forward(gw, ei))
			}
		}
	}

	var exts []graph.CodeEdge
	for k := range extEmbs {
		exts = append(exts, k.t)
	}
	sort.Slice(exts, func(i, j int) bool { return graph.LessExt(exts[i], exts[j]) })

	for _, t := range exts {
		child := append(append([]graph.CodeEdge(nil), code...), t)
		if !graph.IsMinCode(child) {
			continue // explored (or to be explored) under its minimal code
		}
		childEmbs := extEmbs[extKey{t}]
		ids := distinctGids(childEmbs)
		frag := m.makeFragment(child, ids)
		if len(ids) >= m.minSup {
			m.frequent = append(m.frequent, frag)
			m.byCode[frag.Code] = frag
			m.grow(child, childEmbs)
		} else {
			m.border[frag.Code] = frag
		}
	}
}

func (m *miner) makeFragment(code []graph.CodeEdge, ids []int) *Fragment {
	g := graph.CodeGraph(code)
	return &Fragment{
		Graph:   g,
		Code:    graph.EncodeCode(code),
		Support: len(ids),
		FSGIds:  ids,
	}
}

func (m *miner) addZeroSupportPairs(res *Result) {
	labels := map[string]bool{}
	edgeLabels := map[string]bool{}
	for _, g := range m.db {
		for node := range g.NumNodes() {
			l := g.Label(node)
			labels[l] = true
		}
		for i := range g.Edges() {
			edgeLabels[g.EdgeLabelAt(i)] = true
		}
	}
	var vocab []string
	for l := range labels {
		vocab = append(vocab, l)
	}
	sort.Strings(vocab)
	var edgeVocab []string
	for l := range edgeLabels {
		edgeVocab = append(edgeVocab, l)
	}
	sort.Strings(edgeVocab)
	for i, la := range vocab {
		for _, lb := range vocab[i:] {
			for _, le := range edgeVocab {
				g := graph.New(-1)
				g.AddNode(la)
				g.AddNode(lb)
				if err := g.AddLabeledEdge(0, 1, le); err != nil {
					continue
				}
				code := graph.CanonicalCode(g)
				if res.IsFrequent(code) || res.IsDIF(code) {
					continue
				}
				frag := &Fragment{Graph: g, Code: code}
				res.DIFs = append(res.DIFs, frag)
				res.DIFByCode[code] = frag
			}
		}
	}
}

func (e *embedding) backward(edgeIdx int) *embedding { return e.extend(-1, edgeIdx) }
func (e *embedding) forward(node, edgeIdx int) *embedding {
	if node < 0 {
		panic("mining: forward extension needs a node")
	}
	return e.extend(node, edgeIdx)
}

func distinctGids(embs []*embedding) []int {
	seen := map[int]bool{}
	var ids []int
	for _, e := range embs {
		if !seen[e.gid] {
			seen[e.gid] = true
			ids = append(ids, e.gid)
		}
	}
	sort.Ints(ids)
	return ids
}

func rightmostPath(code []graph.CodeEdge) []int {
	// Walk forward edges: the rightmost path is the chain of forward edges
	// ending at the highest-numbered vertex.
	path := []int{0}
	for _, e := range code {
		if e.J > e.I { // forward
			for i, v := range path {
				if v == e.I {
					path = append(path[:i+1:i+1], e.J)
					break
				}
			}
		}
	}
	return path
}

func normEdge(u, v int) graph.Edge {
	if u > v {
		u, v = v, u
	}
	return graph.Edge{U: u, V: v}
}
