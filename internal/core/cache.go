package core

import (
	"context"
	"errors"
	"fmt"
	"slices"

	"prague/internal/candcache"
	"prague/internal/graph"
	"prague/internal/intset"
)

// SetCandidateCache injects the shared cross-session candidate cache
// (typically owned by a service multiplexing many sessions over one
// database). A nil cache restores uncached evaluation. Cached slices are
// immutable; the engine never mutates candidate lists it did not allocate,
// so sharing is safe.
//
// Keys are namespaced by the store's layout (candcache.Key), so sessions
// over different layouts of the same database — monolithic next to a sharded
// store, or stores with different shard counts — can share one cache without
// their entries ever colliding.
func (e *Engine) SetCandidateCache(c *candcache.Cache) { e.cache = c }

// candKey names a fragment's Algorithm 3 candidate id set in the shared
// cache; exactKey names its verified containment set. Both are keyed by the
// fragment's minimum-DFS canonical code and the store's layout, and stay put
// across mutations: the pinned snapshot's epoch and CacheTag (layout,
// content fingerprint and epoch) travel as the entry's version instead
// (version), so entries from different store states never alias. A
// candidate list hits only at its own version (exactSubCandidatesAll
// recomputes it in one probe). A containment set, which costs isomorphism
// checks, is carried forward by the mutations' delta (carryContainment)
// rather than verified again.
func (e *Engine) candKey(code string) string {
	return candcache.Key(candcache.KeyCandidates, e.snap.CacheTag(), code)
}

func (e *Engine) exactKey(code string) string {
	return candcache.Key(candcache.KeyContainment, e.snap.CacheTag(), code)
}

// version is the cache version of the pinned snapshot.
func (e *Engine) version() candcache.Version {
	return candcache.Version{Epoch: e.snap.Epoch(), Tag: e.snap.CacheTag()}
}

// errNotInHistory: a cache entry's version is not in the pinned snapshot's
// mutation history, so it cannot be carried and is recomputed.
var errNotInHistory = errors.New("core: cache entry version not in the snapshot's history")

// delta returns what changed between version from and the pinned snapshot:
// the inserted ids still live at the pin (ascending, since inserted ids only
// grow) and the deleted ids (ascending). Every inserted id exceeds every id
// live at from, so it can be appended to a list computed there.
func (e *Engine) delta(from candcache.Version) (ins, del []int, err error) {
	ms, ok := e.snap.Since(from.Epoch, from.Tag)
	if !ok {
		return nil, nil, errNotInHistory
	}
	for _, m := range ms {
		if m.Insert {
			ins = append(ins, m.ID)
		} else {
			del = append(del, m.ID)
		}
	}
	slices.Sort(del)
	return intset.Diff(ins, del), del, nil
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
		// The count prefilter (chooser.go) may shrink the candidate list
		// with a sound superset filter before isomorphism checks; the
		// verified result does not depend on it.
		pruned, _ := e.countFilter(ctx, []*graph.Graph{frag}, cands)
		return e.containing(ctx, frag, pruned)
	}
	if e.cache == nil {
		return verify(ctx)
	}
	if code == "" {
		code = graph.CanonicalCode(frag)
	}
	return e.cache.Do(ctx, e.exactKey(code), e.version(), e.carryContainment(frag), verify)
}

// containing verifies which of ids contain frag on the verification pool.
// Faulted checks (injected errors, recovered panics) drop candidates, so
// they surface as a typed error: the set is then a subset, and cache.Do
// never publishes it.
func (e *Engine) containing(ctx context.Context, frag *graph.Graph, ids []int) ([]int, error) {
	before := e.runFaults.Load()
	out, err := e.filter(ctx, ids, e.verifyPred(ctx, func(id int) bool {
		return graph.SubgraphIsomorphic(frag, e.snap.Graph(id))
	}))
	if n := e.runFaults.Load() - before; err == nil && n > 0 {
		err = fmt.Errorf("core: %d candidate checks faulted: %w", n, ErrVerifyFaults)
	}
	return out, err
}

// carryContainment rolls frag's verified containment set forward to the
// pinned snapshot: deleted ids leave it, and an inserted id still live at
// the pin joins iff it contains frag (one isomorphism check per insert).
func (e *Engine) carryContainment(frag *graph.Graph) candcache.Carry {
	return func(ctx context.Context, from candcache.Version, ids []int) ([]int, error) {
		ins, del, err := e.delta(from)
		if err != nil {
			return nil, err
		}
		joined, err := e.containing(ctx, frag, ins)
		if err != nil {
			return nil, err
		}
		return append(intset.Diff(ids, del), joined...), nil
	}
}
