// Incremental maintenance of the action-aware indexes under online graph
// mutation. The fragment vocabulary (entries, canonical codes, DAG structure,
// entry identifiers) is frozen at build time; what mutations maintain are the
// FSG identifier lists — the A²F delta lists and the A²I id-lists — by
// appending the new graph's id to every containing fragment on insert and
// splicing it out of every list on delete. Because inserted ids are strictly
// increasing and never reused, sorted order is preserved by construction.
//
// Reclassification when supports cross the frequency threshold (negative-
// border repair) is deliberately NOT represented here: entry ids are baked
// into SPIG fragment lists and cache keys across sessions, so entries never
// move between A²F and A²I. The store layer instead derives a masking of
// entries whose support crossed the threshold (see prague/internal/store),
// which demotes them to the always-sound NIF path. The lists themselves stay
// exact either way, which is the property every answer path relies on.
//
// All mutating methods are copy-on-write: they return a new Set sharing every
// untouched entry with the receiver, so readers pinned to an older epoch keep
// a consistent view. Callers must serialize mutations externally (the store's
// mutation mutex does); the returned sets are safe for concurrent readers.
package index

import (
	"fmt"
	"sort"
	"strings"

	"prague/internal/graph"
	"prague/internal/mining"
)

// Seal materializes every entry's memoized FSG list. A sealed set never
// lazily writes entry state again, which is what makes copy-on-write surgery
// safe: snapshots sharing untouched entry pointers only ever read them.
// Sealing is idempotent; mutating methods call it defensively.
func (s *Set) Seal() {
	s.A2F.mu.Lock()
	defer s.A2F.mu.Unlock()
	for i := range s.A2F.entries {
		s.A2F.fsgIdsLocked(i)
	}
}

// sizeOrder returns entry ids sorted by fragment size (ties by id), the
// top-down traversal order of the DAG: every parent (maximal proper subgraph,
// size-1 smaller) precedes its children.
func (f *A2F) sizeOrder() []int {
	order := make([]int, len(f.entries))
	for i := range order {
		order[i] = i
	}
	sort.Slice(order, func(a, b int) bool {
		ea, eb := f.entries[order[a]], f.entries[order[b]]
		if ea.Size != eb.Size {
			return ea.Size < eb.Size
		}
		return ea.ID < eb.ID
	})
	return order
}

// difParents returns, per A²I entry, the a2f entry ids of the DIF's maximal
// proper connected subgraphs (all frequent by the DIF definition; size-1 DIFs
// have none). Computed once per vocabulary and shared across copy-on-write
// descendants; callers must hold the store's mutation serialization.
func (s *Set) difParents() [][]int {
	if s.A2I.parents != nil {
		return s.A2I.parents
	}
	parents := make([][]int, len(s.A2I.entries))
	for i, d := range s.A2I.entries {
		if d.Size() <= 1 {
			continue
		}
		seen := map[int]bool{}
		for _, e := range d.Graph.Edges() {
			sub, err := d.Graph.DeleteEdge(e.U, e.V)
			if err != nil || !sub.Connected() {
				continue
			}
			if pid, ok := s.A2F.byCode[graph.CanonicalCode(sub)]; ok && !seen[pid] {
				seen[pid] = true
				parents[i] = append(parents[i], pid)
			}
		}
		sort.Ints(parents[i])
	}
	s.A2I.parents = parents
	return parents
}

// DIFParents exposes the a2f entry ids of DIF i's maximal proper connected
// subgraphs — the edge of the negative border the DIF sits on. The store
// layer uses it to mask DIFs whose border became invalid (a parent dropped
// below the support threshold).
func (s *Set) DIFParents(i int) []int { return s.difParents()[i] }

// ContainedIn classifies a data graph against the frozen vocabulary: the a2f
// and a2i entry ids of every indexed fragment subgraph-isomorphic to g, both
// ascending. The A²F DAG is walked top-down with apriori pruning (an entry is
// tested only when all of its maximal proper subgraphs are contained), and
// A²I entries are pruned through their cached frequent parents the same way.
// Must be serialized with other mutating calls on the same vocabulary.
func (s *Set) ContainedIn(g *graph.Graph) (a2f, a2i []int) {
	s.Seal()
	f := s.A2F
	contained := make([]bool, len(f.entries))
	for _, i := range f.sizeOrder() {
		e := f.entries[i]
		if e.Size > g.Size() {
			continue
		}
		ok := true
		for _, p := range e.Parents {
			if !contained[p] {
				ok = false
				break
			}
		}
		if ok && graph.SubgraphIsomorphic(e.Graph, g) {
			contained[i] = true
			a2f = append(a2f, i)
		}
	}
	sort.Ints(a2f)

	parents := s.difParents()
	for i, d := range s.A2I.entries {
		if d.Size() > g.Size() {
			continue
		}
		ok := true
		for _, p := range parents[i] {
			if !contained[p] {
				ok = false
				break
			}
		}
		if ok && graph.SubgraphIsomorphic(d.Graph, g) {
			a2i = append(a2i, i)
		}
	}
	return a2f, a2i
}

// ApplyInsert returns a copy-on-write descendant of the set with graph id gid
// appended to the lists of the given contained entries (as classified by
// ContainedIn against this set's vocabulary, restricted by the store to the
// owning shard). gid must exceed every id already indexed — ids are never
// reused — so sorted appends preserve order. The delta encoding is
// maintained: gid lands in DelIds(f) exactly when no contained child covers
// it, and in the memoized full list of every contained entry.
func (s *Set) ApplyInsert(gid int, a2fIDs, a2iIDs []int) *Set {
	s.Seal()
	f := s.A2F
	nf := &A2F{
		beta:      f.beta,
		entries:   make([]*a2fEntry, len(f.entries)),
		byCode:    f.byCode,
		clusters:  f.clusters,
		numGraphs: f.numGraphs + 1,
	}
	copy(nf.entries, f.entries)
	containedF := make(map[int]bool, len(a2fIDs))
	for _, i := range a2fIDs {
		containedF[i] = true
	}
	for _, i := range a2fIDs {
		old := nf.entries[i]
		e := *old
		e.fsgIds = appendSorted(old.fsgIds, gid)
		inChild := false
		for _, c := range old.Children {
			if containedF[c] {
				inChild = true
				break
			}
		}
		if !inChild {
			e.DelIds = appendSorted(old.DelIds, gid)
		}
		nf.entries[i] = &e
	}

	a := s.A2I
	na := &A2I{
		entries: make([]*mining.Fragment, len(a.entries)),
		byCode:  a.byCode,
		parents: a.parents,
	}
	copy(na.entries, a.entries)
	for _, i := range a2iIDs {
		old := na.entries[i]
		na.entries[i] = &mining.Fragment{
			Graph:   old.Graph,
			Code:    old.Code,
			Support: old.Support + 1,
			FSGIds:  appendSorted(old.FSGIds, gid),
		}
	}
	return &Set{A2F: nf, A2I: na, Alpha: s.Alpha, Beta: s.Beta, NumGraphs: s.NumGraphs + 1}
}

// ApplyDelete returns a copy-on-write descendant with graph id gid spliced
// out of every list containing it, plus the a2f and a2i entry ids it was
// removed from (ascending) for the store's support bookkeeping. Removing one
// id from both sides of the delta encoding preserves it exactly:
// (fsg \ {g}) = (del \ {g}) ∪ ⋃(child_fsg \ {g}).
func (s *Set) ApplyDelete(gid int) (_ *Set, a2fIDs, a2iIDs []int) {
	s.Seal()
	f := s.A2F
	nf := &A2F{
		beta:      f.beta,
		entries:   make([]*a2fEntry, len(f.entries)),
		byCode:    f.byCode,
		clusters:  f.clusters,
		numGraphs: f.numGraphs - 1,
	}
	copy(nf.entries, f.entries)
	for i, old := range f.entries {
		fsg, ok := spliceOut(old.fsgIds, gid)
		if !ok {
			continue
		}
		e := *old
		e.fsgIds = fsg
		if del, ok := spliceOut(old.DelIds, gid); ok {
			e.DelIds = del
		}
		nf.entries[i] = &e
		a2fIDs = append(a2fIDs, i)
	}

	a := s.A2I
	na := &A2I{
		entries: make([]*mining.Fragment, len(a.entries)),
		byCode:  a.byCode,
		parents: a.parents,
	}
	copy(na.entries, a.entries)
	for i, old := range a.entries {
		fsg, ok := spliceOut(old.FSGIds, gid)
		if !ok {
			continue
		}
		na.entries[i] = &mining.Fragment{
			Graph:   old.Graph,
			Code:    old.Code,
			Support: old.Support - 1,
			FSGIds:  fsg,
		}
		a2iIDs = append(a2iIDs, i)
	}
	return &Set{A2F: nf, A2I: na, Alpha: s.Alpha, Beta: s.Beta, NumGraphs: s.NumGraphs - 1}, a2fIDs, a2iIDs
}

// RebuildLists reconstructs every FSG list from scratch over the frozen
// vocabulary: a direct subgraph-isomorphism scan of each entry against the
// given live graphs, with delta lists rederived from the full lists by the
// same formula Build uses. It deliberately shares nothing with the
// incremental path beyond the isomorphism test itself, making it the
// independent oracle FuzzIncrementalIndex compares surgery against.
func (s *Set) RebuildLists(ids []int, graphOf func(id int) *graph.Graph) *Set {
	s.Seal()
	f := s.A2F
	nf := &A2F{
		beta:      f.beta,
		entries:   make([]*a2fEntry, len(f.entries)),
		byCode:    f.byCode,
		clusters:  f.clusters,
		numGraphs: len(ids),
	}
	full := make([][]int, len(f.entries))
	for i, old := range f.entries {
		var fsg []int
		for _, id := range ids {
			if g := graphOf(id); g != nil && graph.SubgraphIsomorphic(old.Graph, g) {
				fsg = append(fsg, id)
			}
		}
		full[i] = fsg
	}
	for i, old := range f.entries {
		covered := map[int]bool{}
		for _, c := range old.Children {
			for _, id := range full[c] {
				covered[id] = true
			}
		}
		var del []int
		for _, id := range full[i] {
			if !covered[id] {
				del = append(del, id)
			}
		}
		e := *old
		e.DelIds = del
		e.fsgIds = full[i]
		nf.entries[i] = &e
	}

	a := s.A2I
	na := &A2I{
		entries: make([]*mining.Fragment, len(a.entries)),
		byCode:  a.byCode,
		parents: a.parents,
	}
	for i, old := range a.entries {
		var fsg []int
		for _, id := range ids {
			if g := graphOf(id); g != nil && graph.SubgraphIsomorphic(old.Graph, g) {
				fsg = append(fsg, id)
			}
		}
		na.entries[i] = &mining.Fragment{
			Graph:   old.Graph,
			Code:    old.Code,
			Support: len(fsg),
			FSGIds:  fsg,
		}
	}
	return &Set{A2F: nf, A2I: na, Alpha: s.Alpha, Beta: s.Beta, NumGraphs: len(ids)}
}

// DumpLists renders every identifier list of the set — the A²F delta lists,
// the reconstructed full lists, and the A²I id-lists — in a deterministic
// byte-comparable form. Two sets over the same vocabulary dump identically
// iff every list (and A²I support) is identical.
func (s *Set) DumpLists() string {
	s.Seal()
	var b strings.Builder
	s.A2F.mu.Lock()
	for _, e := range s.A2F.entries {
		fmt.Fprintf(&b, "F %d %q del=%v fsg=%v\n", e.ID, e.Code, e.DelIds, e.fsgIds)
	}
	s.A2F.mu.Unlock()
	for i, d := range s.A2I.entries {
		fmt.Fprintf(&b, "I %d %q sup=%d fsg=%v\n", i, d.Code, d.Support, d.FSGIds)
	}
	return b.String()
}

// appendSorted returns a fresh copy of ids with v appended; v must exceed
// every element (inserted graph ids strictly increase).
func appendSorted(ids []int, v int) []int {
	out := make([]int, 0, len(ids)+1)
	out = append(out, ids...)
	return append(out, v)
}

// spliceOut returns a fresh copy of the sorted list with v removed, reporting
// whether v was present; absent values return the original slice untouched.
func spliceOut(ids []int, v int) ([]int, bool) {
	i := sort.SearchInts(ids, v)
	if i >= len(ids) || ids[i] != v {
		return ids, false
	}
	out := make([]int, 0, len(ids)-1)
	out = append(out, ids[:i]...)
	return append(out, ids[i+1:]...), true
}
