// Package candcache is the shared cross-session candidate/result cache:
// a bounded, sharded LRU keyed by a fragment's minimum-DFS canonical code
// (prague/internal/graph), storing immutable sorted id sets. PRAGUE's whole
// premise is reuse — SPIGs exist so candidate sets computed for one edge are
// reused by the next — and a service multiplexing many sessions over one
// immutable (database, indexes) pair sees the same small fragments over and
// over. The cache extends that reuse across sessions: the candidate list of
// a fragment (Algorithm 3) and the verified containment set of a fragment
// (the expensive subgraph-isomorphism pass) are each computed once per
// canonical code, then shared.
//
// Lookups that miss go through singleflight-style deduplication: N
// concurrent sessions asking for the same code trigger exactly one index
// probe + verification pass; the other N-1 block and receive the published
// value (counted as "coalesced"). A computation that fails — typically a
// cancelled verification (context semantics of PR 1) — publishes nothing,
// so partial results never enter the cache; one of the waiters simply
// becomes the next leader.
//
// The database mutates online, so every entry records the Version it was
// computed at: the store snapshot's epoch and CacheTag. A lookup serves an
// entry only at the caller's own version. An entry from an older version is
// not dropped: Do hands it to the caller's carry function, which rolls it
// forward over the mutations since (the snapshot's bounded history), and
// republishes the result at the caller's version; only a version the carry
// cannot reach is recomputed. An entry is never replaced by one computed at
// an older epoch, so sessions still pinned to an old epoch cannot drag the
// cache back. Entries leave by the byte-budgeted LRU policy alone. Stored
// slices are owned by the cache and deeply immutable; callers must not
// mutate what Get/Do return (the engine already treats candidate lists as
// read-only — index FSG lists are shared the same way).
package candcache

import (
	"container/list"
	"context"
	"hash/maphash"
	"strings"
	"sync"

	"prague/internal/faultinject"
	"prague/internal/intset"
	"prague/internal/metrics"
	"prague/internal/trace"
)

// Key kinds: the two computations the engine publishes, named in every
// cache key so a candidate list and a verified containment set of the same
// fragment never collide.
const (
	// KeyCandidates namespaces Algorithm 3 candidate id sets.
	KeyCandidates = "cand"
	// KeyContainment namespaces verified exact-containment id sets.
	KeyContainment = "exact"
)

// Key builds a cache key from a computation kind, a store's CacheTag, and a
// fragment's canonical code. Only the tag's layout token (the part before
// its first ':', "s<N>" for an N-shard store) enters the key: stores with
// different shard counts share one cache without one layout ever serving
// another's entries, while the rest
// of the tag, which changes with every mutation, belongs to the entry's
// Version instead.
func Key(kind, tag, code string) string {
	layout, _, _ := strings.Cut(tag, ":")
	return kind + ":" + layout + ":" + code
}

// Version is the store state an entry was computed against: the pinned
// snapshot's epoch and CacheTag.
type Version struct {
	Epoch uint64
	Tag   string
}

// Carry rolls ids, an entry computed at version from, forward to the
// caller's version, returning a fresh slice (ids is the cache's and must not
// be mutated). An error — from not knowing the mutations since from, or a
// failed check — makes Do compute the entry from scratch instead.
type Carry func(ctx context.Context, from Version, ids []int) ([]int, error)

// numShards spreads keys over independently locked LRUs so concurrent
// sessions rarely contend on one mutex.
const numShards = 16

// entryOverhead approximates the per-entry bookkeeping cost (map cell, list
// element, entry struct, slice header) charged against the byte budget.
const entryOverhead = 96

// Cache is a bounded, sharded LRU of immutable id sets with singleflight
// miss deduplication. All methods are safe for concurrent use; a nil *Cache
// is valid and behaves as an always-miss cache that never deduplicates.
type Cache struct {
	shards      [numShards]shard
	shardBudget int64 // per-shard byte budget, fixed at New
	seed        maphash.Seed

	hits      *metrics.Counter
	misses    *metrics.Counter
	coalesced *metrics.Counter
	carried   *metrics.Counter
	evictions *metrics.Counter
	entries   *metrics.Counter // level gauge: live entries
	bytes     *metrics.Counter // level gauge: resident bytes
}

type shard struct {
	mu      sync.Mutex
	byKey   map[string]*entry
	flights map[string]*flight
	lru     list.List // front = most recently used; element values are *entry
	bytes   int64
}

type entry struct {
	key  string
	ver  Version
	ids  []int
	size int64
	elem *list.Element
}

// flight is one in-progress computation; done is closed when the leader
// finishes (successfully or not).
type flight struct {
	done chan struct{}
}

// New creates a cache with the given total byte budget, split evenly across
// shards. Counters are registered in reg (candcache_* names from
// prague/internal/metrics); a nil reg keeps standalone counters so the cache
// works without an observability stack. A budget ≤ 0 returns nil — the
// documented "cache disabled" value.
func New(budget int64, reg *metrics.Registry) *Cache {
	if budget <= 0 {
		return nil
	}
	counter := func(name string) *metrics.Counter {
		if reg == nil {
			return &metrics.Counter{}
		}
		return reg.Counter(name)
	}
	c := &Cache{
		seed:      maphash.MakeSeed(),
		hits:      counter(metrics.CounterCandHits),
		misses:    counter(metrics.CounterCandMisses),
		coalesced: counter(metrics.CounterCandCoalesced),
		carried:   counter(metrics.CounterCandCarried),
		evictions: counter(metrics.CounterCandEvictions),
		entries:   counter(metrics.CounterCandEntries),
		bytes:     counter(metrics.CounterCandBytes),
	}
	c.shardBudget = max(budget/numShards, 1)
	for i := range c.shards {
		c.shards[i].byKey = map[string]*entry{}
		c.shards[i].flights = map[string]*flight{}
	}
	return c
}

func (c *Cache) shard(key string) *shard {
	return &c.shards[maphash.String(c.seed, key)%numShards]
}

// Get returns the id set cached for key at version at, if resident. The
// returned slice is owned by the cache and must not be mutated.
func (c *Cache) Get(key string, at Version) ([]int, bool) {
	if c == nil {
		return nil, false
	}
	sh := c.shard(key)
	sh.mu.Lock()
	e, ok := sh.byKey[key]
	ok = ok && e.ver == at
	if ok {
		sh.lru.MoveToFront(e.elem)
	}
	sh.mu.Unlock()
	if !ok {
		c.misses.Inc()
		return nil, false
	}
	c.hits.Inc()
	return e.ids, true
}

// Put stores an id set computed at version at under key (cloning it, so the
// caller keeps ownership of its slice) and evicts least-recently-used
// entries until the shard fits its budget. An entry larger than the whole
// shard budget is not stored, and neither is one older than the resident
// entry.
func (c *Cache) Put(key string, at Version, ids []int) {
	if c == nil {
		return
	}
	sh := c.shard(key)
	sh.mu.Lock()
	c.putLocked(sh, key, at, ids)
	sh.mu.Unlock()
}

// Do returns the id set for key at version at, computing it at most once
// across all concurrent callers: an entry resident at at returns immediately
// (hit); a key being computed by another goroutine blocks until that leader
// publishes (coalesced); otherwise the caller becomes the leader. A leader
// that finds an entry from an older epoch rolls it forward with carry
// (carried); one that finds none, or whose carry fails or is nil, runs
// compute (miss). Either way the result is published at at. compute's error
// — typically a wrapped ctx.Err() from a cancelled verification — is
// returned to the leader with whatever partial value compute produced, and
// nothing is published; one blocked waiter then takes over as the next
// leader. A waiter whose own ctx is done stops waiting and returns
// ctx.Err(). On a nil cache Do simply runs compute.
func (c *Cache) Do(ctx context.Context, key string, at Version, carry Carry, compute func(ctx context.Context) ([]int, error)) ([]int, error) {
	if c == nil {
		return compute(ctx)
	}
	if err := faultinject.Hit(ctx, faultinject.SiteCache); err != nil {
		// The cache is "unavailable" for this lookup: compute inline and
		// publish nothing, exactly like running without a cache. The bypass
		// is visible in traces so chaos runs can assert it happened.
		sp := trace.SpanFromContext(ctx).Child(trace.KindCandFetch)
		sp.SetAttr("key", key)
		sp.Add("fault_bypass", 1)
		defer sp.End()
		return compute(trace.ContextWithSpan(ctx, sp))
	}
	// Traced sessions see every cache interaction as a cand_fetch span whose
	// single outcome count (hit / miss / coalesced / carried) mirrors the
	// counters; the leader's carry or compute runs under the span, so
	// verification work nests beneath the fetch that triggered it.
	sp := trace.SpanFromContext(ctx).Child(trace.KindCandFetch)
	sp.SetAttr("key", key)
	defer sp.End()
	sh := c.shard(key)
	waited := false
	for {
		sh.mu.Lock()
		e, resident := sh.byKey[key]
		if resident && e.ver == at {
			sh.lru.MoveToFront(e.elem)
			sh.mu.Unlock()
			if waited {
				c.coalesced.Inc()
				sp.Add("coalesced", 1)
			} else {
				c.hits.Inc()
				sp.Add("hit", 1)
			}
			return e.ids, nil
		}
		if f, ok := sh.flights[key]; ok {
			sh.mu.Unlock()
			select {
			case <-f.done:
				waited = true
				continue
			case <-ctx.Done():
				sp.Add("wait_cancelled", 1)
				return nil, ctx.Err()
			}
		}
		f := &flight{done: make(chan struct{})}
		sh.flights[key] = f
		sh.mu.Unlock()

		lctx := trace.ContextWithSpan(ctx, sp)
		var ids []int
		var err error
		carried := false
		if resident && carry != nil && e.ver.Epoch < at.Epoch {
			ids, err = carry(lctx, e.ver, e.ids)
			carried = err == nil
		}
		if carried {
			c.carried.Inc()
			sp.Add("carried", 1)
		} else {
			c.misses.Inc()
			sp.Add("miss", 1)
			ids, err = compute(lctx)
		}

		sh.mu.Lock()
		delete(sh.flights, key)
		if err == nil {
			c.putLocked(sh, key, at, ids)
		}
		sh.mu.Unlock()
		close(f.done)
		return ids, err
	}
}

// Lookup is the first half of Do, for callers that compute their misses
// themselves — typically many keys in one batch — and publish each with Put.
// It is traced and fault-injected as Do is: a cand_fetch span counts the hit
// or miss, and a firing SiteCache fault bypasses the cache, so neither ok nor
// publish is set and the caller must not Put what it computes. Unlike Do,
// misses are not coalesced, and an entry at another version is a miss, never
// carried: concurrent callers that miss one key each compute it. A nil cache
// reports a miss that is not to be published.
func (c *Cache) Lookup(ctx context.Context, key string, at Version) (ids []int, ok, publish bool) {
	if c == nil {
		return nil, false, false
	}
	sp := trace.SpanFromContext(ctx).Child(trace.KindCandFetch)
	sp.SetAttr("key", key)
	defer sp.End()
	if err := faultinject.Hit(ctx, faultinject.SiteCache); err != nil {
		sp.Add("fault_bypass", 1)
		return nil, false, false
	}
	if ids, ok = c.Get(key, at); ok {
		sp.Add("hit", 1)
		return ids, true, false
	}
	sp.Add("miss", 1)
	return nil, false, true
}

// putLocked inserts (or refreshes) an entry; sh.mu is held.
func (c *Cache) putLocked(sh *shard, key string, at Version, ids []int) {
	size := int64(len(key)) + 8*int64(len(ids)) + entryOverhead
	if size > c.shardBudget {
		return
	}
	if old, ok := sh.byKey[key]; ok {
		if old.ver == at || old.ver.Epoch > at.Epoch {
			// Racing leaders (a retried waiter after an eviction) may
			// publish one version twice, and the sets are equal by
			// construction; a session pinned to an older epoch must not
			// replace a newer entry. Keep the old one either way.
			sh.lru.MoveToFront(old.elem)
			return
		}
		c.removeLocked(sh, old)
	}
	e := &entry{key: key, ver: at, ids: intset.Clone(ids), size: size}
	e.elem = sh.lru.PushFront(e)
	sh.byKey[key] = e
	sh.bytes += size
	c.entries.Inc()
	c.bytes.Add(size)
	c.evictLocked(sh)
}

// evictLocked drops LRU entries until the shard fits its budget (always
// keeping at least one entry); sh.mu is held.
func (c *Cache) evictLocked(sh *shard) {
	for sh.bytes > c.shardBudget && sh.lru.Len() > 1 {
		c.removeLocked(sh, sh.lru.Back().Value.(*entry))
		c.evictions.Inc()
	}
}

// removeLocked drops one resident entry; sh.mu is held.
func (c *Cache) removeLocked(sh *shard, e *entry) {
	sh.lru.Remove(e.elem)
	delete(sh.byKey, e.key)
	sh.bytes -= e.size
	c.entries.Add(-1)
	c.bytes.Add(-e.size)
}

// Len returns the number of resident entries.
func (c *Cache) Len() int {
	if c == nil {
		return 0
	}
	n := 0
	for i := range c.shards {
		sh := &c.shards[i]
		sh.mu.Lock()
		n += len(sh.byKey)
		sh.mu.Unlock()
	}
	return n
}

// SizeBytes returns the resident byte footprint (data + accounted overhead).
func (c *Cache) SizeBytes() int64 {
	if c == nil {
		return 0
	}
	var n int64
	for i := range c.shards {
		sh := &c.shards[i]
		sh.mu.Lock()
		n += sh.bytes
		sh.mu.Unlock()
	}
	return n
}

// Stats is a point-in-time view of the cache counters.
type Stats struct {
	Hits      int64 `json:"hits"`
	Misses    int64 `json:"misses"`
	Coalesced int64 `json:"coalesced"`
	Carried   int64 `json:"carried"`
	Evictions int64 `json:"evictions"`
	Entries   int64 `json:"entries"`
	Bytes     int64 `json:"bytes"`
}

// HitRatio returns the share of lookups served without computing anything:
// hits and coalesced waits over every lookup. A carry did work (its delta),
// so it counts among the lookups but not the hits. Zero traffic reports 0.
func (s Stats) HitRatio() float64 {
	served := s.Hits + s.Coalesced
	if total := served + s.Carried + s.Misses; total > 0 {
		return float64(served) / float64(total)
	}
	return 0
}

// Stats snapshots the counters.
func (c *Cache) Stats() Stats {
	if c == nil {
		return Stats{}
	}
	return Stats{
		Hits:      c.hits.Value(),
		Misses:    c.misses.Value(),
		Coalesced: c.coalesced.Value(),
		Carried:   c.carried.Value(),
		Evictions: c.evictions.Value(),
		Entries:   c.entries.Value(),
		Bytes:     c.bytes.Value(),
	}
}
