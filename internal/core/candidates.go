package core

import (
	"context"
	"fmt"
	"slices"
	"sync"
	"time"

	"prague/internal/faultinject"
	"prague/internal/intset"
	"prague/internal/spig"
	"prague/internal/store"
	"prague/internal/trace"
)

// exactSubCandidates implements Algorithm 3 (ExactSubCandidates): the FSG
// identifiers of the query fragment represented by SPIG vertex v — directly
// from A²F/A²I when the fragment is indexed, otherwise the intersection of
// the FSG ids of its indexed subgraphs (Φ ∪ Υ). Results are memoized per
// vertex: in similarity mode Algorithm 4 revisits the same vertices after
// every formulation step, and a vertex's fragment list never changes once
// built (the memo is dropped on modification, when vertices can disappear).
//
// With a shared cross-session cache injected, the intersection result of a
// non-indexed (NIF) vertex is additionally published under its canonical
// code, so concurrent sessions formulating overlapping fragments intersect
// each list once service-wide. Indexed vertices bypass the cache: their
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
	e.exactSubCandidatesAll(ctx, []*spig.Vertex{v}, ids[:], errs[:])
	return ids[0], errs[0]
}

// exactSubCandidatesAll is exactSubCandidates over every vertex one action
// needs: vertex vs[i]'s list and probe error go to lists[i] and errs[i]. It
// is the one place that tells the layouts apart. On a remote layout the
// vertices travel together (probeRemote), so an action costs one request per
// replica group rather than one per vertex and shard. In process they are
// resolved one at a time, polling cancellation between them; the first error
// ends the batch and is also the error of every vertex after it.
func (e *Engine) exactSubCandidatesAll(ctx context.Context, vs []*spig.Vertex, lists [][]int, errs []error) {
	if pr, ok := e.snap.(store.Prober); ok {
		e.probeRemote(ctx, pr, vs, lists, errs)
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
	if ids, ok := e.candMemo[v]; ok {
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
		ids, err = e.cache.Do(cctx, e.candKey(v.Code),
			func(ctx context.Context) ([]int, error) { return e.computeCandidates(ctx, v), nil })
		if err != nil {
			return nil, err
		}
	}
	e.memo(v, ids)
	return ids, nil
}

// probeRemote is Algorithm 3 for several vertices on a snapshot whose shards
// live in other processes. Memoized vertices, NIF vertices the shared cache
// holds, and NIF vertices the index fault hook degrades are answered on the
// coordinator; the rest go out in one store.Prober batch, recorded as one
// index_probe span. Fetched lists are memoized, and NIF ones published to
// the cache. The cache is consulted with Lookup rather than Do, so each
// lookup is still a cand_fetch span and still meets the cache fault hook,
// but a miss is fetched by the batch: concurrent sessions that miss one
// fragment each probe it rather than wait for one fetch. When a shard group
// cannot answer, an indexed vertex gets the wrapped error and a NIF vertex
// the degraded superset ProbeAll returns, which is used for this action
// only: it is neither memoized nor published, so the next action probes
// again.
func (e *Engine) probeRemote(ctx context.Context, pr store.Prober, vs []*spig.Vertex, lists [][]int, errs []error) {
	var (
		probes []store.Probe
		probed []*spig.Vertex         // the vertex of each probe
		keys   []string               // the cache key each probe's list is published under, "" for none
		at     = make([]int, len(vs)) // vs index -> probe index, -1 if answered here
	)
	for i, v := range vs {
		at[i] = -1
		if v == nil {
			continue
		}
		if ids, ok := e.candMemo[v]; ok {
			lists[i] = ids
			continue
		}
		if k := slices.Index(probed, v); k >= 0 {
			at[i] = k // two deletion candidates with one fragment class
			continue
		}
		key := ""
		if !v.Kind.Indexed() {
			// The same fault hook, fallback and soundness argument as the
			// in-process path of localCandidates.
			if err := faultinject.Hit(ctx, faultinject.SiteIndex); err != nil {
				trace.SpanFromContext(ctx).Add("index_fault_fallback", 1)
				lists[i] = e.allIds()
				continue
			}
			if e.cache != nil {
				ck := e.candKey(v.Code)
				ids, hit, publish := e.cache.Lookup(ctx, ck)
				if hit {
					e.memo(v, ids)
					lists[i] = ids
					continue
				}
				if publish {
					key = ck
				}
			}
		}
		at[i] = len(probes)
		probes = append(probes, probeOf(v))
		probed = append(probed, v)
		keys = append(keys, key)
	}
	if len(probes) == 0 {
		return
	}
	pctx, sp := trace.StartChild(ctx, trace.KindIndexProbe)
	sp.Add("probes", int64(len(probes)))
	got, err := pr.ProbeAll(pctx, probes)
	for k, v := range probed {
		switch {
		case err == nil:
			e.memo(v, got[k])
			if keys[k] != "" {
				e.cache.Put(keys[k], got[k])
			}
		case !probes[k].Kind.Indexed():
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

func (e *Engine) memo(v *spig.Vertex, ids []int) {
	if e.candMemo == nil {
		e.candMemo = map[*spig.Vertex][]int{}
	}
	e.candMemo[v] = ids
}

// computeCandidates resolves a vertex's candidate list against an in-process
// store: per shard (concurrently when the store is partitioned) and then
// merged by ascending graph id. Shard FSG lists partition the monolithic
// lists, so the merged result is byte-identical to the single-shard
// computation.
func (e *Engine) computeCandidates(ctx context.Context, v *spig.Vertex) []int {
	if sp := trace.SpanFromContext(ctx); sp != nil {
		t0 := time.Now()
		defer func() {
			sp.Record(trace.KindIndexProbe, time.Since(t0), "lists", int64(len(v.Phi)+len(v.Ups)+1))
		}()
	}
	n := e.snap.NumShards()
	if len(e.probeScratch) < n {
		e.probeScratch = make([]store.ProbeScratch, n)
	}
	p := probeOf(v)
	if n == 1 {
		return store.ShardCandidates(e.snap.Shard(0), p, &e.probeScratch[0])
	}
	t0 := time.Now()
	parts := make([][]int, n)
	var wg sync.WaitGroup
	for i := 0; i < n; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			parts[i] = store.ShardCandidates(e.snap.Shard(i), p, &e.probeScratch[i])
		}(i)
	}
	wg.Wait()
	if sp := trace.SpanFromContext(ctx); sp != nil {
		sp.Record(trace.KindShardEval, time.Since(t0), "shard_probes", int64(n))
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
// (NIF vertices, whose candidate sets are only upper bounds). The probes of
// every level are resolved together (one batch on a remote layout);
// cancellation is polled before them, between them in process, and between
// levels.
func (e *Engine) similarSubCandidates(ctx context.Context) (rfree, rver levelSets, err error) {
	n := e.q.Size()
	lo := max(n-e.sigma, 1)
	if cerr := ctx.Err(); cerr != nil {
		return nil, nil, cerr
	}
	levels := make([][]*spig.Vertex, 0, n-lo) // levels[j] is level n-1-j
	var vs []*spig.Vertex
	for i := n - 1; i >= lo; i-- {
		lv := e.spigs.LevelVertices(i)
		levels = append(levels, lv)
		vs = append(vs, lv...)
	}
	lists, errs := make([][]int, len(vs)), make([]error, len(vs))
	e.exactSubCandidatesAll(ctx, vs, lists, errs)
	for _, verr := range errs {
		if verr != nil {
			return nil, nil, verr
		}
	}
	rfree, rver = levelSets{}, levelSets{}
	k := 0
	for j, lv := range levels {
		if cerr := ctx.Err(); cerr != nil {
			return nil, nil, cerr
		}
		i := n - 1 - j
		var free, ver []int
		for _, v := range lv {
			if v.Kind.Indexed() {
				free = intset.Union(free, lists[k])
			} else {
				ver = intset.Union(ver, lists[k])
			}
			k++
		}
		ver = intset.Diff(ver, free) // already verification-free at this level
		if len(free) > 0 {
			rfree[i] = free
		}
		if len(ver) > 0 {
			rver[i] = ver
		}
	}
	return rfree, rver, nil
}
