package core

import (
	"context"
	"errors"
	"fmt"

	"prague/internal/candcache"
	"prague/internal/faultinject"
	"prague/internal/spig"
	"prague/internal/store"
	"prague/internal/trace"
)

// exactSubCandidates implements Algorithm 3 (ExactSubCandidates): the FSG
// identifiers of the query fragment represented by SPIG vertex v — directly
// from A²F/A²I when the fragment is indexed, otherwise the intersection of
// the FSG ids of its indexed subgraphs (Φ ∪ Υ). It is exactSubCandidatesAll
// for one vertex.
func (e *Engine) exactSubCandidates(ctx context.Context, v *spig.Vertex) ([]int, error) {
	var ids [1][]int
	var errs [1]error
	e.exactSubCandidatesAll(ctx, []*spig.Vertex{v}, 0, ids[:], errs[:])
	return ids[0], errs[0]
}

// classMemo holds Algorithm 3 lists per fragment class: a vertex's canonical
// code, in [1] when the vertex was classified as indexed and in [0] when it
// is a NIF. Within one pinned epoch a class has one sound list. An indexed
// code names exactly one index entry — the A²F and A²I vocabularies are
// disjoint and frozen, so indexedness also fixes the kind — whose id list is
// exact whatever the entry's current mask. A NIF list is a verified
// superset, and any NIF vertex's superset serves every other. Indexedness
// must be part of the key: vertices keep the kind of the epoch they were
// built in (spig.Set.SetClassifier), so after an epoch advance one session
// can hold a frequent and a NIF vertex of one code, and the NIF superset must
// never be served as the frequent vertex's exact, verification-free list.
// (Two string-keyed maps are the cheapest lookup every window vertex of every
// step pays.)
type classMemo [2]map[string][]int

// slot is the classMemo map of v's class.
func slot(v *spig.Vertex) int {
	if v.Kind.Indexed() {
		return 1
	}
	return 0
}

func (m *classMemo) get(v *spig.Vertex) ([]int, bool) {
	ids, ok := m[slot(v)][v.Code]
	return ids, ok
}

func (m *classMemo) put(v *spig.Vertex, ids []int) {
	i := slot(v)
	if m[i] == nil {
		m[i] = map[string][]int{}
	}
	m[i][v.Code] = ids
}

// probeBatch is the bookkeeping of one exactSubCandidatesAll call. The
// engine owns one and reuses its buffers, so a batch allocates nothing of
// its own once the session is warm.
type probeBatch struct {
	probes []store.Probe
	probed []*spig.Vertex    // the vertex of each probe
	keys   []string          // the cache key each probe's list is published under, "" for none
	at     []int             // vertex index -> probe index, -1 if answered without one
	class  [2]map[string]int // class -> probe index, as in classMemo
	lists  [][]int           // ProbeAll's output
	ver    candcache.Version // the version cached lists are looked up and published at
}

// exactSubCandidatesAll is Algorithm 3 over every vertex one action needs:
// vertex vs[i]'s list and error go to lists[i] and errs[i]. A vertex is
// answered, in order, by
//
//   - the class memo: results live per fragment class for the life of the
//     pinned epoch. In similarity mode Algorithm 4 revisits the same classes
//     after every formulation step, and a modification only removes
//     vertices, so Run and Modify probe only what formulation has not
//     resolved yet — even when a deletion makes an isomorphic vertex of
//     another SPIG its level's representative;
//   - the index fault hook, for a NIF vertex (see enqueue);
//   - the shared cache, for a NIF vertex: concurrent sessions formulating
//     overlapping fragments fetch each list once service-wide. Lookup is
//     traced and fault-injected; an entry hits only at the pinned
//     snapshot's own version. Indexed vertices bypass the cache: their list
//     is the index's own FSG list;
//   - one probe per class, all of them evaluated by one snap.ProbeAll call,
//     recorded as one index_probe span. Fetched lists are memoized, and NIF
//     ones published to the cache. Cached NIF lists are sound candidate
//     supersets; every consumer verifies them (Rq verification in Run, Rver
//     in SimilarResultsGen), so a list published by a session with a
//     differently-inherited Φ/Υ never changes final answers.
//
// The unresolved classes of SPIG level ride (0 for none) join the batch as
// optional riders: a deletion moves the similarity window down onto that
// level, and a layout that sends a request anyway fetches them now, saving
// the deletion its round trip. No one waits for a rider; a fetched one is
// memoized and published like any other probe. With nothing else to probe,
// no rider is gathered either.
//
// A context error fails every vertex the batch did not finish; the lists
// finished before it are memoized. When a shard cannot be served, an
// indexed vertex gets the wrapped error and a NIF vertex the degraded
// superset ProbeAll returns, which is used for this action only: it is
// neither memoized nor published, so the next action probes again.
func (e *Engine) exactSubCandidatesAll(ctx context.Context, vs []*spig.Vertex, ride int, lists [][]int, errs []error) {
	b := &e.batch
	b.probes, b.probed, b.keys, b.at = b.probes[:0], b.probed[:0], b.keys[:0], b.at[:0]
	for i := range b.class {
		if b.class[i] == nil {
			b.class[i] = map[string]int{}
		}
		clear(b.class[i])
	}
	if e.cache != nil {
		b.ver = e.version()
	}
	for i, v := range vs {
		k := -1
		if v != nil {
			lists[i], k = e.enqueue(ctx, v)
		}
		b.at = append(b.at, k)
	}
	if len(b.probes) == 0 {
		return
	}
	asked := len(b.probes)
	if ride > 0 {
		for _, v := range e.spigs.LevelVertices(ride) {
			e.enqueue(ctx, v)
		}
	}
	pctx, sp := trace.StartChild(ctx, trace.KindIndexProbe)
	sp.Add("probes", int64(len(b.probes)))
	if r := len(b.probes) - asked; r > 0 {
		sp.Add("riders", int64(r))
	}
	got, err := e.snap.ProbeAll(pctx, b.probes, len(b.probes)-asked, b.lists)
	b.lists = got
	degraded := errors.Is(err, store.ErrShardUnavailable)
	for k, ids := range got {
		switch {
		case !degraded:
			e.candMemo.put(b.probed[k], ids)
			if b.keys[k] != "" {
				e.cache.Put(b.keys[k], b.ver, ids)
			}
		case k < asked && !b.probes[k].Kind.Indexed():
			sp.Add("shard_probe_fallback", 1)
		}
	}
	sp.End()
	for i, k := range b.at {
		switch {
		case k < 0:
		case k >= len(got):
			errs[i] = err
		case degraded && b.probes[k].Kind.Indexed():
			errs[i] = fmt.Errorf("core: indexed probe: %w", err)
		default:
			lists[i] = got[k]
		}
	}
}

// enqueue answers v without a probe — from the memo, the index fault
// hook's fallback or the shared cache — or adds its class to the batch,
// returning its list or its probe index (-1 if answered here).
func (e *Engine) enqueue(ctx context.Context, v *spig.Vertex) ([]int, int) {
	b := &e.batch
	if ids, ok := e.candMemo.get(v); ok {
		return ids, -1
	}
	if k, ok := b.class[slot(v)][v.Code]; ok {
		return nil, k // two vertices of one fragment class
	}
	key := ""
	if !v.Kind.Indexed() {
		// The fault hook covers only NIF probes: their candidate lists are
		// always verified downstream, so degrading a faulted probe to the
		// no-information candidate set (every data graph) costs work, never
		// answers. Indexed vertices are exempt on purpose — their FSG lists
		// feed verification-free answering, where a fallback would not be
		// sound. The fallback is neither memoized nor published, so recovery
		// is immediate once the probes heal.
		if err := faultinject.Hit(ctx, faultinject.SiteIndex); err != nil {
			trace.SpanFromContext(ctx).Add("index_fault_fallback", 1)
			return e.allIds(), -1
		}
		if e.cache != nil {
			ck := e.candKey(v.Code)
			ids, hit, publish := e.cache.Lookup(ctx, ck, b.ver)
			if hit {
				e.candMemo.put(v, ids)
				return ids, -1
			}
			if publish {
				key = ck
			}
		}
	}
	k := len(b.probes)
	b.class[slot(v)][v.Code] = k
	b.probes = append(b.probes, probeOf(v))
	b.probed = append(b.probed, v)
	b.keys = append(b.keys, key)
	return nil, k
}

// probeOf is the part of a SPIG vertex an index probe reads.
func probeOf(v *spig.Vertex) store.Probe {
	return store.Probe{Kind: v.Kind, FreqID: v.FreqID, DifID: v.DifID, Phi: v.Phi, Ups: v.Ups}
}

// allIds returns the identifier universe of the pinned epoch: the live graph
// ids, excluding tombstoned slots. The slice is owned by the snapshot and
// must not be mutated.
func (e *Engine) allIds() []int { return e.snap.LiveIDs() }

// similarSubCandidates implements Algorithm 4 (SimilarSubCandidates): for
// each level i from |q|-1 down to |q|-σ, split the FSG candidates of the
// level's SPIG vertices into verification-free candidates (vertices indexed
// as frequent fragments or DIFs — the data graph provably contains the
// level-i fragment, hence dist ≤ |q|-i) and candidates needing verification
// (NIF vertices, whose candidate sets are only upper bounds). The result
// replaces e.sim, whose bitsets are cleared and refilled in place; on error
// e.sim is left empty. The probes of every level, and of the target whose
// list Run's distance-0 pass needs, are resolved in one batch, so a Run
// after formulation probes nothing; cancellation is polled before them,
// between them, and between levels. The level below the window rides along
// with the batch: it is the one level a single-edge deletion adds to the
// window (whose target, q − e, is already a level-(|q|-1) vertex), so on a
// remote layout that deletion probes nothing either.
func (e *Engine) similarSubCandidates(ctx context.Context) error {
	e.sim = e.sim[:0]
	n := e.q.Size()
	lo := max(n-e.sigma, 1)
	ride := 0
	if e.sigma > 0 && lo > 1 {
		ride = lo - 1
	}
	if err := ctx.Err(); err != nil {
		return err
	}
	levels := make([][]*spig.Vertex, 0, n-lo) // levels[j] is level n-1-j
	size := 1                                 // the target
	for i := n - 1; i >= lo; i-- {
		lv := e.spigs.LevelVertices(i)
		levels = append(levels, lv)
		size += len(lv)
	}
	// The target rides last in the batch: Run's distance-0 pass reads its
	// list from the memo instead of probing at Run time.
	vs := make([]*spig.Vertex, 0, size)
	for _, lv := range levels {
		vs = append(vs, lv...)
	}
	vs = append(vs, e.spigs.Target(e.q))
	lists, errs := make([][]int, len(vs)), make([]error, len(vs))
	e.exactSubCandidatesAll(ctx, vs, ride, lists, errs)
	// Only the levels' errors fail the refresh: a target that could not be
	// resolved is not memoized, so Run probes it again and reports the error.
	for _, err := range errs[:len(vs)-1] {
		if err != nil {
			return err
		}
	}
	// Reslicing up to the capacity keeps the earlier levels' buffers.
	e.sim = e.sim[:min(len(levels), cap(e.sim))]
	for len(e.sim) < len(levels) {
		e.sim = append(e.sim, simLevel{})
	}
	last := e.snap.NumGraphs() - 1
	k := 0
	for j, lv := range levels {
		if err := ctx.Err(); err != nil {
			e.sim = e.sim[:0]
			return err
		}
		l := &e.sim[j]
		l.free.SetRange(0, last)
		l.ver.SetRange(0, last)
		for _, v := range lv {
			if v.Kind.Indexed() {
				l.free.OrSorted(lists[k])
			} else {
				l.ver.OrSorted(lists[k])
			}
			k++
		}
		l.ver.AndNot(&l.free) // already verification-free at this level
	}
	return nil
}
