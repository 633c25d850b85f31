// Package store abstracts how the (database, action-aware indexes) pair is
// laid out behind the engine: monolithic (Mem — one flat graph slice and one
// index set) or hash-partitioned (Sharded — N shards, each owning its own
// A²F/A²I index built concurrently). Every layer above — candidate
// maintenance, verification fan-out, caching, persistence, the naive-scan
// oracle — goes through the Store interface, and per-shard results merge
// deterministically (sorted by graph id) so both layouts return
// byte-identical answers.
//
// Stores are mutable: InsertGraph and DeleteGraph maintain the per-shard
// index lists incrementally (prague/internal/index dynamic surgery) under
// epoch-based copy-on-write snapshots. Every mutation publishes a new
// immutable Snapshot atomically; readers Pin the snapshot their action
// started in and observe exactly one epoch for the whole action, no matter
// how many mutations land mid-flight. Graph ids are never reused: a deleted
// id becomes a tombstone (nil Graph slot) and inserted ids strictly
// increase, so the id space only grows while LiveIDs tracks the actual
// universe.
package store

import (
	"context"
	"errors"
	"fmt"
	"sync"

	"prague/internal/graph"
	"prague/internal/index"
	"prague/internal/intset"
)

// Sentinel errors shared by the store constructors and mutators (and
// re-exported by the public prague package). Test with errors.Is.
var (
	// ErrEmptyDatabase: a store needs at least one data graph.
	ErrEmptyDatabase = errors.New("empty database")
	// ErrNilIndex: a store needs a built index set.
	ErrNilIndex = errors.New("nil index set")
	// ErrBadShardCount: the shard count must be ≥ 1.
	ErrBadShardCount = errors.New("shard count must be ≥ 1")
	// ErrManifestMismatch: a persisted shard layout does not match the
	// database (or scheme) it is being loaded against.
	ErrManifestMismatch = errors.New("shard manifest mismatch")
	// ErrBadGraph: InsertGraph requires a non-empty connected data graph.
	ErrBadGraph = errors.New("insert requires a non-empty connected graph")
	// ErrNoSuchGraph: DeleteGraph's id is out of range or already deleted.
	ErrNoSuchGraph = errors.New("no such data graph")
	// ErrShardUnavailable: a shard's candidate probe could not be served —
	// every endpoint owning the shard failed (or replied at the wrong
	// epoch) within the call's budget. Only probes whose result feeds
	// verification-free answering surface it; probes that are verified
	// downstream degrade to sound supersets instead.
	ErrShardUnavailable = errors.New("shard unavailable")
)

// Snapshot is one consistent, immutable view of a store: the graph slots,
// live-id universe, and per-shard index lists as of one epoch. Snapshots are
// safe for unlimited concurrent readers and never change after publication;
// an evaluation that pins a snapshot at action start observes a single epoch
// end to end.
type Snapshot interface {
	// Epoch is the snapshot's monotonically increasing version: 0 for a
	// freshly built store (or whatever the persisted manifest recorded),
	// +1 per published mutation.
	Epoch() uint64
	// NumGraphs returns the id-space size: valid ids are [0, NumGraphs),
	// but tombstoned slots return a nil Graph. Use LiveIDs for the universe.
	NumGraphs() int
	// Graph returns the data graph with the given global identifier, or nil
	// if the slot is tombstoned.
	Graph(id int) *graph.Graph
	// LiveIDs returns the ascending ids of all non-deleted graphs. The slice
	// is owned by the snapshot and must not be mutated.
	LiveIDs() []int
	// Lookup classifies a fragment's canonical code against the action-aware
	// indexes. Every shard carries the full fragment vocabulary, so the
	// classification is layout-independent. Entries whose support crossed
	// the frequency threshold under mutation are masked to KindNone
	// (negative-border repair; see the package comment in state.go).
	Lookup(code string) (index.Kind, int)
	// NumShards returns how many partitions the store holds (1 for Mem).
	NumShards() int
	// Shard returns partition i as of this snapshot.
	Shard(i int) Shard
	// ShardOf returns the partition owning the given global graph id.
	ShardOf(graphID int) int
	// CacheTag is a short stable token identifying (layout, content
	// fingerprint, epoch) for cache-key namespacing: entries computed
	// against different layouts, different databases, or different epochs
	// of the same store must never collide in a shared candidate cache.
	CacheTag() string
}

// Store is the engine's handle on one database + index layout. Reads served
// directly on the Store delegate to the current snapshot; evaluations that
// must observe one consistent epoch across many calls use Pin. Mutations are
// serialized internally and publish a new snapshot atomically.
type Store interface {
	Snapshot
	// Pin returns the current snapshot. The returned view never changes;
	// pin once per action and route every read of the action through it.
	Pin() Snapshot
	// InsertGraph adds a data graph to the store, assigning and returning
	// the next free global id (the store takes ownership of g and renumbers
	// g.ID). The owning shard's index lists are maintained incrementally and
	// a new epoch is published. The graph must be non-empty and connected.
	InsertGraph(g *graph.Graph) (int, error)
	// DeleteGraph tombstones the given id: the graph leaves every index
	// list and the live universe, the slot reads as nil, and the id is
	// never reused.
	DeleteGraph(id int) error
	// Save persists the store's index layout (including the current epoch
	// and tombstone set) into dir.
	Save(dir string) error
}

// Shard is one partition of a Snapshot: a subset of the live data graphs
// plus the action-aware indexes restricted to exactly those graphs.
type Shard interface {
	// ID returns the shard's index in [0, NumShards).
	ID() int
	// NumGraphs returns how many live data graphs the shard owns.
	NumGraphs() int
	// GraphIDs returns the shard's live global graph ids in ascending
	// order. The slice is owned by the shard and must not be mutated.
	GraphIDs() []int
	// Index returns the shard-restricted index set, or nil when the shard
	// lives in another process (its snapshot is then a Prober).
	Index() *index.Set
}

// Probe is one Algorithm 3 index probe, in a form that can cross a process
// boundary: the vertex's classification plus the entry ids to intersect. It
// captures exactly what candidate maintenance reads from a spig.Vertex, so a
// remote shard can evaluate the probe without the vertex (or the query) ever
// leaving the coordinator.
type Probe struct {
	Kind   index.Kind // KindFrequent / KindDIF / KindNone (NIF)
	FreqID int        // A²F entry id when Kind == KindFrequent
	DifID  int        // A²I entry id when Kind == KindDIF
	Phi    []int      // indexed frequent subgraphs (A²F entry ids), NIF only
	Ups    []int      // indexed DIF subgraphs (A²I entry ids), NIF only
}

// ProbeScratch is reusable bitset scratch for ShardCandidates' NIF
// intersection. One goroutine uses one scratch at a time.
type ProbeScratch struct {
	a, b intset.Bits
}

// ShardCandidates is Algorithm 3's index probe against one in-process shard:
// the shard-restricted FSG list for indexed probes, the Υ-then-Φ
// intersection for NIFs, and the shard's whole id set when no index
// information exists. The NIF intersection runs word-at-a-time over
// compressed bitsets in sc; only the returned list is allocated. Indexed
// probes return the index's own list, which must not be mutated.
func ShardCandidates(sh Shard, p Probe, sc *ProbeScratch) []int {
	idx := sh.Index()
	switch p.Kind {
	case index.KindFrequent:
		return idx.A2F.FSGIds(p.FreqID)
	case index.KindDIF:
		return idx.A2I.FSGIds(p.DifID)
	}
	if len(p.Phi) == 0 && len(p.Ups) == 0 {
		// A NIF with no indexed subgraph information at all. This cannot
		// happen with the standard indexes (every single edge is frequent
		// or a DIF, and Υ propagates), but a degraded index — e.g. the
		// A²I-disabled ablation — can reach here. With no information, the
		// sound candidate set is the whole shard.
		return sh.GraphIDs()
	}
	// DIFs have the strongest pruning power; intersect them first so the
	// running set shrinks early.
	first := true
	and := func(ids []int) bool {
		if first {
			sc.a.SetSorted(ids)
			first = false
		} else {
			sc.a.AndSorted(ids, &sc.b)
		}
		return !sc.a.Empty()
	}
	for _, id := range p.Ups {
		if !and(idx.A2I.FSGIds(id)) {
			return nil
		}
	}
	for _, id := range p.Phi {
		if !and(idx.A2F.FSGIds(id)) {
			return nil
		}
	}
	return sc.a.AppendTo(make([]int, 0, sc.a.Len()))
}

// Prober is the snapshot capability of layouts whose shards live in other
// processes (Shard(i).Index() is nil): every probe one action needs,
// evaluated in one call, so the layout can send one request per replica
// group instead of one per probe and shard.
type Prober interface {
	// ProbeAll evaluates the probes at the snapshot's pinned epoch and
	// returns one ascending global id list per probe. When some shard
	// cannot be served, it still returns every NIF probe's list, with the
	// unserved shards contributing their whole live id sets (a sound
	// superset), and an error wrapping ErrShardUnavailable; every indexed
	// probe's list is then nil.
	ProbeAll(ctx context.Context, probes []Probe) ([][]int, error)
}

// ShardHealth is one shard's serving status as seen by a coordinator:
// how many endpoints own the shard and how many of them answered their
// most recent call.
type ShardHealth struct {
	Shard     int
	Endpoints int
	Healthy   int
}

// HealthReporter is implemented by layouts that track per-shard endpoint
// health (the remote coordinator store). Local layouts do not implement it:
// their shards are in-process and cannot be "down".
type HealthReporter interface {
	ShardHealthReport() []ShardHealth
}

// AssignShard returns the partition owning a global graph id under the
// hash assignment every layout shares (splitmix64 mod n). It is exported so
// out-of-process coordinators compute shard ownership without a snapshot —
// the assignment is stable across processes and layouts by construction.
func AssignShard(id, n int) int { return shardOf(id, n) }

// Validate checks the invariants every store constructor shares: a non-empty
// database with dense identifiers and a built index set.
func Validate(db []*graph.Graph, idx *index.Set) error {
	if len(db) == 0 {
		return ErrEmptyDatabase
	}
	if idx == nil {
		return ErrNilIndex
	}
	for i, g := range db {
		if g == nil || g.ID != i {
			return fmt.Errorf("data graph at position %d must have dense id %d", i, i)
		}
	}
	return nil
}

// MergeSorted merges per-shard candidate id lists into one sorted,
// duplicate-free list. Shard lists are sorted and pairwise disjoint by
// construction, so the merge reconstructs the monolithic list exactly; it is
// order-independent and dedups regardless, so a misbehaving input cannot
// produce an unsorted or duplicated result (FuzzShardMerge pins this down).
func MergeSorted(parts [][]int) []int {
	switch len(parts) {
	case 0:
		return nil
	case 1:
		return parts[0]
	}
	// Fast path: well-formed parts (strictly ascending, non-negative — what
	// shards actually produce) of reasonable density union through a pooled
	// compressed bitset in one pass per part, allocating only the result.
	lo, hi, total := 0, -1, 0
	wellFormed := true
scan:
	for _, p := range parts {
		for i, v := range p {
			if v < 0 || (i > 0 && v <= p[i-1]) {
				wellFormed = false
				break scan
			}
		}
		if len(p) > 0 {
			if hi < 0 || p[0] < lo {
				lo = p[0]
			}
			if p[len(p)-1] > hi {
				hi = p[len(p)-1]
			}
			total += len(p)
		}
	}
	if wellFormed && total > 0 && (hi-lo)/64 <= 4*total {
		b := mergeBits.Get().(*intset.Bits)
		b.SetRange(lo, hi)
		for _, p := range parts {
			for _, v := range p {
				b.Add(v)
			}
		}
		out := b.AppendTo(make([]int, 0, b.Len()))
		mergeBits.Put(b)
		return out
	}
	// Adversarial or hyper-sparse input: the comparison-based merge is
	// order-independent and dedups regardless.
	var out []int
	for _, p := range parts {
		out = intset.Union(out, p)
	}
	return out
}

var mergeBits = sync.Pool{New: func() any { return new(intset.Bits) }}

// SplitBy partitions a sorted id list by shard ownership, preserving order:
// result[i] holds the ids owned by shard i, still ascending. It accepts any
// Snapshot (a Store works too: a store is a view of its current epoch).
func SplitBy(st Snapshot, ids []int) [][]int {
	parts := make([][]int, st.NumShards())
	for _, id := range ids {
		si := st.ShardOf(id)
		parts[si] = append(parts[si], id)
	}
	return parts
}
