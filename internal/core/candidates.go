package core

import (
	"context"
	"fmt"
	"time"

	"prague/internal/faultinject"
	"prague/internal/spig"
	"prague/internal/store"
	"prague/internal/trace"
)

// exactSubCandidates implements Algorithm 3 (ExactSubCandidates): the FSG
// identifiers of the query fragment represented by SPIG vertex v — directly
// from A²F/A²I when the fragment is indexed, otherwise the intersection of
// the FSG ids of its indexed subgraphs (Φ ∪ Υ). Results are memoized per
// fragment class (classMemo) for the life of the pinned epoch: in similarity
// mode Algorithm 4 revisits the same classes after every formulation step,
// and a modification only removes vertices, so Run and Modify probe only
// what formulation has not resolved yet — even when a deletion makes an
// isomorphic vertex of another SPIG its level's representative.
//
// With a shared cross-session cache injected, the intersection result of a
// non-indexed (NIF) vertex is additionally published under its canonical
// code, so concurrent sessions formulating overlapping fragments intersect
// each list once service-wide; in process, a list published before a
// mutation is carried forward over it (carryCandidates) rather than
// intersected again. Indexed vertices bypass the cache: their
// candidate list is the index's own FSG list, already an O(1) lookup.
// Cached NIF lists are sound candidate supersets; every consumer verifies
// them (Rq verification in Run, Rver in SimilarResultsGen), so a list
// published by a session with a differently-inherited Φ/Υ never changes
// final answers.
// A probe error (only possible on remote layouts, and only for indexed
// vertices — NIF probe failures degrade to sound supersets) is returned
// without memoizing or publishing anything, so recovery is immediate once
// the shard heals.
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

// exactSubCandidatesAll is exactSubCandidates over every vertex one action
// needs: vertex vs[i]'s list and probe error go to lists[i] and errs[i]. It
// is the one place that tells the layouts apart. On a remote layout the
// vertices travel together (probeRemote), so an action costs one request per
// replica group rather than one per vertex and shard; the vertices of SPIG
// level ride (0 for none) go along when a request is sent anyway. In process
// they are resolved one at a time, polling cancellation between them; the
// first error ends the batch and is also the error of every vertex after it.
func (e *Engine) exactSubCandidatesAll(ctx context.Context, vs []*spig.Vertex, ride int, lists [][]int, errs []error) {
	if pr, ok := e.snap.(store.Prober); ok {
		e.probeRemote(ctx, pr, vs, ride, lists, errs)
		return
	}
	var err error
	for i, v := range vs {
		if err == nil && i > 0 {
			err = ctx.Err()
		}
		if err == nil {
			lists[i], err = e.localCandidates(ctx, v)
		}
		errs[i] = err
	}
}

// localCandidates is Algorithm 3 for one vertex on an in-process store.
func (e *Engine) localCandidates(ctx context.Context, v *spig.Vertex) ([]int, error) {
	if v == nil {
		return nil, nil
	}
	if ids, ok := e.candMemo.get(v); ok {
		return ids, nil
	}
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
			return e.allIds(), nil
		}
	}
	var ids []int
	if e.cache == nil || v.Kind.Indexed() {
		ids = e.computeCandidates(ctx, v)
	} else {
		// Candidate intersection is pure and never polls cancellation, so
		// the cache call runs on a background context — cancelling mid-Do
		// would memoize a bogus empty list. The trace span and the fault
		// injector cross over, so cache hits/misses still land in the
		// action's tree and cache faults still fire under chaos schedules.
		cctx := trace.ContextWithSpan(context.Background(), trace.SpanFromContext(ctx))
		cctx = faultinject.With(cctx, faultinject.FromContext(ctx))
		var err error
		ids, err = e.cache.Do(cctx, e.candKey(v.Code), e.version(), e.carryCandidates(v),
			func(ctx context.Context) ([]int, error) { return e.computeCandidates(ctx, v), nil })
		if err != nil {
			return nil, err
		}
	}
	e.candMemo.put(v, ids)
	return ids, nil
}

// probeRemote is Algorithm 3 for several vertices on a snapshot whose shards
// live in other processes. Memoized classes, NIF vertices the shared cache
// holds, and NIF vertices the index fault hook degrades are answered on the
// coordinator; the rest go out in one store.Prober batch, recorded as one
// index_probe span, with one probe per class. Fetched lists are memoized, and
// NIF ones published to the cache. The cache is consulted with Lookup rather
// than Do, so each lookup is still a cand_fetch span and still meets the
// cache fault hook, but a miss is fetched by the batch: concurrent sessions
// that miss one fragment each probe it rather than wait for one fetch. The
// coordinator holds no index lists to carry a list with, so a cached list
// hits only at the pinned snapshot's own version. When a shard group
// cannot answer, an indexed vertex gets the wrapped error and a NIF vertex
// the degraded superset ProbeAll returns, which is used for this action
// only: it is neither memoized nor published, so the next action probes
// again.
//
// When the batch goes out, the unresolved classes of SPIG level ride join
// it as riders: a deletion moves the similarity window down onto that level,
// and a rider fetched now saves the deletion its round trip. Riders are
// resolved like any other vertex, but no one waits for them: a rider that
// faults or fails is simply not memoized. With nothing else to send, no
// rider is sent either.
func (e *Engine) probeRemote(ctx context.Context, pr store.Prober, vs []*spig.Vertex, ride int, lists [][]int, errs []error) {
	var (
		probes []store.Probe
		probed []*spig.Vertex              // the vertex of each probe
		keys   []string                    // the cache key each probe's list is published under, "" for none
		batch  = [2]map[string]int{{}, {}} // class -> probe index, as in classMemo
		ver    = e.version()               // the version cached lists are looked up and published at
		at     = make([]int, len(vs))      // vs index -> probe index, -1 if answered here
	)
	// resolve answers v on the coordinator or adds its class to the batch,
	// returning its list or its probe index (-1 if answered here).
	resolve := func(v *spig.Vertex) ([]int, int) {
		if ids, ok := e.candMemo.get(v); ok {
			return ids, -1
		}
		if k, ok := batch[slot(v)][v.Code]; ok {
			return nil, k // two vertices of one fragment class
		}
		key := ""
		if !v.Kind.Indexed() {
			// The same fault hook, fallback and soundness argument as the
			// in-process path of localCandidates.
			if err := faultinject.Hit(ctx, faultinject.SiteIndex); err != nil {
				trace.SpanFromContext(ctx).Add("index_fault_fallback", 1)
				return e.allIds(), -1
			}
			if e.cache != nil {
				ck := e.candKey(v.Code)
				ids, hit, publish := e.cache.Lookup(ctx, ck, ver)
				if hit {
					e.candMemo.put(v, ids)
					return ids, -1
				}
				if publish {
					key = ck
				}
			}
		}
		batch[slot(v)][v.Code] = len(probes)
		probes = append(probes, probeOf(v))
		probed = append(probed, v)
		keys = append(keys, key)
		return nil, len(probes) - 1
	}
	for i, v := range vs {
		at[i] = -1
		if v != nil {
			lists[i], at[i] = resolve(v)
		}
	}
	if len(probes) == 0 {
		return
	}
	asked := len(probes)
	if ride > 0 {
		for _, v := range e.spigs.LevelVertices(ride) {
			resolve(v)
		}
	}
	pctx, sp := trace.StartChild(ctx, trace.KindIndexProbe)
	sp.Add("probes", int64(len(probes)))
	if r := len(probes) - asked; r > 0 {
		sp.Add("riders", int64(r))
	}
	got, err := pr.ProbeAll(pctx, probes)
	for k, v := range probed {
		switch {
		case err == nil:
			e.candMemo.put(v, got[k])
			if keys[k] != "" {
				e.cache.Put(keys[k], ver, got[k])
			}
		case k < asked && !probes[k].Kind.Indexed():
			sp.Add("shard_probe_fallback", 1)
		}
	}
	sp.End()
	for i, k := range at {
		if k < 0 {
			continue
		}
		if err != nil && probes[k].Kind.Indexed() {
			errs[i] = fmt.Errorf("core: indexed probe: %w", err)
			continue
		}
		lists[i] = got[k]
	}
}

// computeCandidates resolves a vertex's candidate list against an in-process
// store: shard by shard in the caller's loop, on the engine's one probe
// scratch, and then merged by ascending graph id. Shard FSG lists partition
// the monolithic lists, so the merged result is byte-identical to the
// single-shard computation.
func (e *Engine) computeCandidates(ctx context.Context, v *spig.Vertex) []int {
	if sp := trace.SpanFromContext(ctx); sp != nil {
		t0 := time.Now()
		defer func() {
			sp.Record(trace.KindIndexProbe, time.Since(t0), "lists", int64(len(v.Phi)+len(v.Ups)+1))
		}()
	}
	p := probeOf(v)
	n := e.snap.NumShards()
	if n == 1 {
		return store.ShardCandidates(e.snap.Shard(0), p, &e.probeScratch)
	}
	// ShardCandidates returns fresh lists, so one scratch serves every shard.
	parts := make([][]int, n)
	for i := range parts {
		parts[i] = store.ShardCandidates(e.snap.Shard(i), p, &e.probeScratch)
	}
	return store.MergeSorted(parts)
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
// list Run's distance-0 pass needs, are resolved together (one batch on a
// remote layout), so a Run after formulation probes nothing; cancellation
// is polled before them, between them in process, and between levels. On a
// remote layout the level below the window rides along with the batch: it
// is the one level a single-edge deletion adds to the window (whose target,
// q − e, is already a level-(|q|-1) vertex), so that deletion probes
// nothing either.
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
