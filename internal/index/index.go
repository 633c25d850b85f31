// Package index implements GBLENDER's action-aware indexing schemes, which
// PRAGUE reuses (paper §III): the action-aware frequent index A²F — a
// memory-resident MF-index for frequent fragments of size ≤ β and a
// disk-resident DF-index of fragment clusters for larger ones, with
// delta-encoded FSG identifier lists (delId) — and the action-aware
// infrequent index A²I over discriminative infrequent fragments (DIFs).
package index

import (
	"fmt"
	"sort"
	"sync"

	"prague/internal/graph"
	"prague/internal/mining"
)

// Kind classifies a fragment with respect to the indexes.
type Kind int

const (
	// KindNone means the fragment is neither indexed as frequent nor as a
	// DIF (it is a NIF, or absent from the database entirely).
	KindNone Kind = iota
	// KindFrequent means the fragment is in the A²F-index.
	KindFrequent
	// KindDIF means the fragment is in the A²I-index.
	KindDIF
)

// Indexed reports whether a fragment of this kind is itself an index entry,
// so its FSG list is exact: it feeds verification-free answering, while a
// NIF's candidate list is a superset verified downstream.
func (k Kind) Indexed() bool { return k == KindFrequent || k == KindDIF }

func (k Kind) String() string {
	switch k {
	case KindFrequent:
		return "frequent"
	case KindDIF:
		return "dif"
	default:
		return "none"
	}
}

// A2F is the action-aware frequent index. Vertices form a DAG: an edge
// f' -> f exists iff f' ⊂ f and |f| = |f'|+1. Each vertex stores only
// delId(f) = fsgIds(f) minus the union of its children's FSG ids; full id
// lists are reconstructed (and memoized) on demand.
type A2F struct {
	beta    int
	entries []*a2fEntry
	byCode  map[string]int

	clusters  []*cluster // DF-index: fragment clusters for |f| > beta
	numGraphs int
	order     []int // sizeOrder, sorted once per vocabulary (dynamic.go)

	// mu guards the per-entry fsgIds memoization so concurrent sessions
	// can share one index.
	mu sync.Mutex
}

type a2fEntry struct {
	ID       int
	Code     string
	Size     int
	Graph    *graph.Graph
	Parents  []int
	Children []int
	DelIds   []int // delta-encoded FSG ids
	Cluster  int   // -1 for MF-resident entries

	fsgIds []int // memoized reconstruction
}

// cluster is one DF-index fragment cluster: the entries of all fragments
// whose smallest size-(β+1) ancestor is the cluster root.
type cluster struct {
	Root    int   // entry id of the root fragment (size β+1)
	Members []int // entry ids, including the root
}

// A2I is the action-aware infrequent index: DIFs in ascending size order,
// each entry holding the fragment's canonical code and its FSG ids.
type A2I struct {
	entries []*mining.Fragment
	byCode  map[string]int

	// parents caches, per DIF, the a2f entry ids of its maximal proper
	// connected subgraphs (dynamic.go). Computed once per vocabulary under
	// the store's mutation serialization and shared by copy-on-write
	// descendants; concurrent readers never touch it.
	parents [][]int
}

// Set bundles the two action-aware indexes plus the parameters they were
// built with.
type Set struct {
	A2F       *A2F
	A2I       *A2I
	Alpha     float64
	Beta      int
	NumGraphs int
}

// Build constructs the action-aware indexes from a mining result. beta is the
// fragment size threshold separating MF- from DF-resident fragments.
func Build(res *mining.Result, alpha float64, beta int) (*Set, error) {
	if beta < 1 {
		return nil, fmt.Errorf("index: beta must be ≥ 1, got %d", beta)
	}

	a2f := &A2F{beta: beta, byCode: map[string]int{}, numGraphs: res.NumGraphs}
	for i, f := range res.Frequent {
		a2f.entries = append(a2f.entries, &a2fEntry{
			ID:      i,
			Code:    f.Code,
			Size:    f.Size(),
			Graph:   f.Graph,
			Cluster: -1,
		})
		a2f.byCode[f.Code] = i
	}

	// DAG edges: for each fragment of size > 1, connect to each maximal
	// proper connected subgraph (all of which are frequent by apriori).
	for i, f := range res.Frequent {
		if f.Size() == 1 {
			continue
		}
		seen := map[int]bool{}
		for _, e := range f.Graph.Edges() {
			sub, err := f.Graph.DeleteEdge(e.U, e.V)
			if err != nil {
				return nil, err
			}
			if !sub.Connected() {
				continue
			}
			pid, ok := a2f.byCode[graph.CanonicalCode(sub)]
			if !ok {
				return nil, fmt.Errorf("index: apriori violation: subgraph of %s not frequent", f.Code)
			}
			if !seen[pid] {
				seen[pid] = true
				a2f.entries[pid].Children = append(a2f.entries[pid].Children, i)
				a2f.entries[i].Parents = append(a2f.entries[i].Parents, pid)
			}
		}
	}

	// delId(f) = fsgIds(f) \ ∪ fsgIds(child). Children's FSG ids are
	// subsets of f's, so this is a pure delta encoding.
	for i, f := range res.Frequent {
		covered := map[int]bool{}
		for _, c := range a2f.entries[i].Children {
			for _, id := range res.Frequent[c].FSGIds {
				covered[id] = true
			}
		}
		for _, id := range f.FSGIds {
			if !covered[id] {
				a2f.entries[i].DelIds = append(a2f.entries[i].DelIds, id)
			}
		}
	}

	// DF clustering: each entry of size > β is assigned to the cluster of
	// its smallest (by entry id) size-(β+1) ancestor.
	clusterOf := map[int]int{} // root entry id -> cluster index
	var order []int
	for i := range a2f.entries {
		order = append(order, i)
	}
	sort.Slice(order, func(a, b int) bool { return a2f.entries[order[a]].Size < a2f.entries[order[b]].Size })
	rootOf := make([]int, len(a2f.entries)) // entry -> root entry id (or -1)
	for i := range rootOf {
		rootOf[i] = -1
	}
	for _, i := range order {
		e := a2f.entries[i]
		if e.Size == beta+1 {
			rootOf[i] = i
		} else if e.Size > beta+1 {
			best := -1
			for _, p := range e.Parents {
				if r := rootOf[p]; r != -1 && (best == -1 || r < best) {
					best = r
				}
			}
			rootOf[i] = best
		}
	}
	for _, i := range order {
		if rootOf[i] == -1 {
			continue
		}
		root := rootOf[i]
		ci, ok := clusterOf[root]
		if !ok {
			ci = len(a2f.clusters)
			clusterOf[root] = ci
			a2f.clusters = append(a2f.clusters, &cluster{Root: root})
		}
		a2f.clusters[ci].Members = append(a2f.clusters[ci].Members, i)
		a2f.entries[i].Cluster = ci
	}

	a2i := &A2I{byCode: map[string]int{}}
	for _, d := range res.DIFs { // already sorted ascending by size
		a2i.byCode[d.Code] = len(a2i.entries)
		a2i.entries = append(a2i.entries, d)
	}

	return &Set{A2F: a2f, A2I: a2i, Alpha: alpha, Beta: beta, NumGraphs: res.NumGraphs}, nil
}

// Lookup classifies the fragment with the given canonical code: frequent
// (with its a2fId), DIF (with its a2iId), or unindexed.
func (s *Set) Lookup(code string) (Kind, int) {
	if id, ok := s.A2F.byCode[code]; ok {
		return KindFrequent, id
	}
	if id, ok := s.A2I.byCode[code]; ok {
		return KindDIF, id
	}
	return KindNone, -1
}

// FSGIds returns the candidate FSG ids for an indexed fragment.
func (s *Set) FSGIds(kind Kind, id int) []int {
	switch kind {
	case KindFrequent:
		return s.A2F.FSGIds(id)
	case KindDIF:
		return s.A2I.FSGIds(id)
	default:
		return nil
	}
}

// NumEntries returns the number of indexed frequent fragments.
func (f *A2F) NumEntries() int { return len(f.entries) }

// Beta returns the fragment size threshold.
func (f *A2F) Beta() int { return f.beta }

// IDByCode returns the a2fId of the frequent fragment with the given code.
func (f *A2F) IDByCode(code string) (int, bool) {
	id, ok := f.byCode[code]
	return id, ok
}

// Fragment returns the fragment graph of entry id.
func (f *A2F) Fragment(id int) *graph.Graph { return f.entries[id].Graph }

// Code returns the canonical code of entry id.
func (f *A2F) Code(id int) string { return f.entries[id].Code }

// FragmentSize returns |f| of entry id.
func (f *A2F) FragmentSize(id int) int { return f.entries[id].Size }

// Children returns the child entry ids (immediate frequent supergraphs).
func (f *A2F) Children(id int) []int { return f.entries[id].Children }

// FSGIds reconstructs the full FSG identifier list of entry id from the
// delta encoding, memoizing the result. Safe for concurrent use: the lazy
// reconstruction is serialized, and the returned slice is never mutated
// afterwards (callers must treat it as read-only).
func (f *A2F) FSGIds(id int) []int {
	f.mu.Lock()
	defer f.mu.Unlock()
	return f.fsgIdsLocked(id)
}

func (f *A2F) fsgIdsLocked(id int) []int {
	e := f.entries[id]
	if e.fsgIds != nil {
		return e.fsgIds
	}
	set := map[int]bool{}
	for _, d := range e.DelIds {
		set[d] = true
	}
	for _, c := range e.Children {
		for _, d := range f.fsgIdsLocked(c) {
			set[d] = true
		}
	}
	ids := make([]int, 0, len(set))
	for d := range set {
		ids = append(ids, d)
	}
	sort.Ints(ids)
	e.fsgIds = ids
	return ids
}

// NumEntries returns the number of DIFs.
func (a *A2I) NumEntries() int { return len(a.entries) }

// IDByCode returns the a2iId of the DIF with the given code.
func (a *A2I) IDByCode(code string) (int, bool) {
	id, ok := a.byCode[code]
	return id, ok
}

// Fragment returns the DIF graph of entry id.
func (a *A2I) Fragment(id int) *graph.Graph { return a.entries[id].Graph }

// Code returns the canonical code of DIF entry id.
func (a *A2I) Code(id int) string { return a.entries[id].Code }

// FSGIds returns the FSG identifier list of DIF entry id.
func (a *A2I) FSGIds(id int) []int { return a.entries[id].FSGIds }

// SizeBytes estimates the serialized footprint of the indexes (used to
// reproduce Table II and Figure 10(a)): codes, DAG edges and identifier
// lists, with 4-byte integers, matching how the paper reports index sizes.
func (s *Set) SizeBytes() (total, a2f, a2i int64) {
	for _, e := range s.A2F.entries {
		a2f += int64(len(e.Code))
		a2f += 4 * int64(len(e.Parents)+len(e.Children)+len(e.DelIds)+2)
	}
	for _, d := range s.A2I.entries {
		a2i += int64(len(d.Code))
		a2i += 4 * int64(len(d.FSGIds)+1)
	}
	return a2f + a2i, a2f, a2i
}

// MFEntries and DFEntries report how many frequent fragments live in the
// memory- and disk-resident components respectively.
func (f *A2F) MFEntries() (n int) {
	for _, e := range f.entries {
		if e.Cluster < 0 {
			n++
		}
	}
	return n
}

// DFEntries reports the number of DF-resident fragments.
func (f *A2F) DFEntries() int { return len(f.entries) - f.MFEntries() }

// NumClusters reports the number of DF fragment clusters.
func (f *A2F) NumClusters() int { return len(f.clusters) }
