package core

import (
	"context"
	"fmt"

	"prague/internal/candcache"
	"prague/internal/graph"
)

// SetCandidateCache injects the shared cross-session candidate cache
// (typically owned by a service multiplexing many sessions over one
// immutable database). A nil cache restores uncached evaluation. Cached
// slices are immutable; the engine never mutates candidate lists it did not
// allocate, so sharing is safe.
//
// Keys are namespaced by the store's layout tag (candcache.Key), so sessions
// over different layouts of the same database — monolithic next to a sharded
// store, or stores with different shard counts — can share one cache without
// their entries ever colliding.
func (e *Engine) SetCandidateCache(c *candcache.Cache) { e.cache = c }

// candKey names a fragment's Algorithm 3 candidate id set in the shared
// cache; exactKey names its verified containment set. Both are keyed by the
// fragment's minimum-DFS canonical code plus the pinned snapshot's CacheTag
// (layout, content fingerprint, and epoch), which identifies the computation
// completely: a mutation publishes a new epoch, so entries computed against
// different store states can never alias.
func (e *Engine) candKey(code string) string {
	return candcache.Key(candcache.KeyCandidates, e.snap.CacheTag(), code)
}

func (e *Engine) exactKey(code string) string {
	return candcache.Key(candcache.KeyContainment, e.snap.CacheTag(), code)
}

// exactContainment returns the ids of data graphs containing frag, verified
// by full subgraph isomorphism over the sound candidate superset cands.
// With a cache the verified set is computed once per canonical code across
// all sessions (singleflight) and then served from memory; the result is
// independent of which sound superset a particular session derived, so
// cross-session sharing is exact. Cancellation mid-verification returns the
// partial prefix plus ctx.Err() and publishes nothing.
func (e *Engine) exactContainment(ctx context.Context, code string, frag *graph.Graph, cands []int) ([]int, error) {
	verify := func(ctx context.Context) ([]int, error) {
		before := e.runFaults.Load()
		// The count prefilter (chooser.go) may shrink the candidate list
		// with a sound superset filter before isomorphism checks; the
		// verified result does not depend on it.
		pruned, _ := e.countFilter(ctx, []*graph.Graph{frag}, cands)
		out, err := e.filter(ctx, pruned, e.verifyPred(ctx, func(id int) bool {
			return graph.SubgraphIsomorphic(frag, e.snap.Graph(id))
		}))
		if err == nil {
			// Faulted checks (injected errors, recovered panics) dropped
			// candidates: surface a typed error so the set is treated as a
			// subset — and, below, so cache.Do never publishes it.
			if n := e.runFaults.Load() - before; n > 0 {
				err = fmt.Errorf("core: %d candidate checks faulted: %w", n, ErrVerifyFaults)
			}
		}
		return out, err
	}
	if e.cache == nil {
		return verify(ctx)
	}
	if code == "" {
		code = graph.CanonicalCode(frag)
	}
	return e.cache.Do(ctx, e.exactKey(code), verify)
}
