package core

import (
	"context"
	"sync"

	"prague/internal/store"
	"prague/internal/trace"
	"prague/internal/workpool"
)

// SetPool injects a shared bounded verification pool (typically owned by a
// service multiplexing many sessions over one database). The engine does
// not close the pool. A nil pool restores inline verification.
func (e *Engine) SetPool(p *workpool.Pool) { e.pool = p }

// filter runs pred over ids, fanning out per shard when the store is
// partitioned, and merging the per-shard survivors by ascending graph id.
// Both paths poll ctx between candidates and return the partial result with
// ctx.Err() on cancellation; under a partitioned store the partial result is
// the merge of each shard's verified prefix, so the degradation ladder
// truncates per shard rather than cutting one global scan short. Recovered
// predicate panics fail only their own candidate; each one is accounted as a
// run fault so the outcome is flagged Truncated.
func (e *Engine) filter(ctx context.Context, ids []int, pred func(id int) bool) ([]int, error) {
	if e.snap.NumShards() > 1 && len(ids) > 1 {
		return e.filterSharded(ctx, ids, pred)
	}
	return e.filterOne(ctx, ids, pred)
}

// filterOne is one verification batch on the shared pool; a nil pool
// verifies inline.
func (e *Engine) filterOne(ctx context.Context, ids []int, pred func(id int) bool) ([]int, error) {
	out, st, err := e.pool.FilterStats(ctx, ids, pred)
	if st.Panics > 0 {
		e.runFaults.Add(int64(st.Panics))
	}
	return out, err
}

// filterSharded splits the candidate batch by shard ownership and verifies
// the shards concurrently — each on the shared pool, which still bounds the
// total verification parallelism. The sorted, disjoint per-shard survivor
// lists merge deterministically, so the result is byte-identical to the
// unsharded scan. Each shard's batch runs under its own shard_eval span for
// per-shard trace attribution.
func (e *Engine) filterSharded(ctx context.Context, ids []int, pred func(id int) bool) ([]int, error) {
	parts := store.SplitBy(e.snap, ids)
	outs := make([][]int, len(parts))
	errs := make([]error, len(parts))
	var wg sync.WaitGroup
	for si, part := range parts {
		if len(part) == 0 {
			continue
		}
		wg.Add(1)
		go func(si int, part []int) {
			defer wg.Done()
			sctx, sp := trace.StartChild(ctx, trace.KindShardEval)
			sp.Add("shard", int64(si))
			sp.Add("candidates", int64(len(part)))
			outs[si], errs[si] = e.filterOne(sctx, part, pred)
			sp.End()
		}(si, part)
	}
	wg.Wait()
	merged := store.MergeSorted(outs)
	for _, err := range errs {
		if err != nil {
			return merged, err
		}
	}
	return merged, nil
}
