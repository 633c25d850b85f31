// Package store lays the (database, action-aware indexes) pair out behind
// the engine as one store type, Sharded: the database hash-partitioned into
// N shards, each owning its own A²F/A²I index. N == 1 is the monolithic
// layout, whose one shard holds the built index set itself. Every layer
// above — candidate maintenance, verification, caching, persistence, the
// naive-scan oracle — goes through the Store interface. Candidate probes
// (Algorithm 3) go through a pinned snapshot's ProbeAll, one batch per
// action: in process the batch evaluator walks the shards one after another
// in the caller's goroutine, and the per-shard results merge
// deterministically (sorted by graph id) so every shard count, and the
// remote layout, returns byte-identical answers.
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
	"prague/internal/prefilter"
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
	// ErrBadProbe: a probe batch names a shard or an index entry the
	// snapshot does not have (ProbeShards).
	ErrBadProbe = errors.New("probe out of range")
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
	// NumShards returns how many partitions the store holds (1 for the
	// monolithic layout).
	NumShards() int
	// ShardOf returns the partition owning the given global graph id.
	ShardOf(graphID int) int
	// CacheTag is a short stable token identifying (layout, content
	// fingerprint, epoch) for cache-key namespacing: entries computed
	// against different layouts, different databases, or different epochs
	// of the same store must never collide in a shared candidate cache.
	CacheTag() string
	// Since returns the mutations that led from the version (epoch, tag) to
	// this snapshot, oldest first: none when the version is the snapshot's
	// own. ok is false when the version is neither the snapshot's own nor
	// in its bounded history (another lineage, a later epoch, or more than
	// HistoryLen mutations back).
	Since(epoch uint64, tag string) (ms []Mutation, ok bool)
	// FilterTable returns the verify prefilter's per-graph table for this
	// epoch: the Grafil-light feature counts of every live graph. The
	// first call builds it, once per snapshot, unless the mutation that
	// published the snapshot derived it from its parent's table; built
	// reports whether this call paid for the full build.
	FilterTable() (tab *prefilter.Table, built bool)
	// ProbeAll evaluates every Algorithm 3 probe one action needs at the
	// snapshot's epoch, in one call, so a layout whose shards live in other
	// processes sends one request per replica group instead of one per
	// probe and shard. It appends one ascending global id list per probe it
	// evaluated to out[:0], in order, and returns the lists as read-only.
	//
	// The last riders probes are optional: a layout evaluates them only
	// when it sends a request anyway. An in-process snapshot never does,
	// so it returns len(probes)-riders lists; a remote one returns
	// len(probes).
	//
	// Cancellation is polled between probes: on a context error the lists
	// returned are those of the probes finished before it. When some shard
	// cannot be served, every probe is still evaluated: each NIF probe's
	// list holds the unserved shards' whole live id sets (a sound
	// superset), each indexed probe's list is nil, and the error wraps
	// ErrShardUnavailable.
	ProbeAll(ctx context.Context, probes []Probe, riders int, out [][]int) ([][]int, error)
}

// HistoryLen bounds how many mutations a snapshot remembers (Since). It is
// a constant, so a snapshot's history costs the same however long the store
// has been mutating.
const HistoryLen = 64

// Mutation is one published change to a store: the version it was applied
// to (that snapshot's epoch and CacheTag) and the graph id it inserted or
// deleted. The mutation published epoch Epoch+1.
type Mutation struct {
	Epoch  uint64
	Tag    string
	Insert bool // an InsertGraph; otherwise a DeleteGraph
	ID     int
}

// History is the bounded record of the mutations that led to a snapshot,
// oldest first, with consecutive epochs. It is immutable once published.
type History []Mutation

// Add returns the history extended by m, keeping the newest HistoryLen
// mutations. h itself is not modified.
func (h History) Add(m Mutation) History {
	h = h[max(len(h)-HistoryLen+1, 0):]
	return append(append(make(History, 0, len(h)+1), h...), m)
}

// Since returns the suffix of h starting at the mutation applied to version
// (epoch, tag), or ok false when that version is not in h. Callers check
// the snapshot's own version first: h holds only the versions before it.
func (h History) Since(epoch uint64, tag string) ([]Mutation, bool) {
	if len(h) == 0 || epoch < h[0].Epoch || epoch-h[0].Epoch >= uint64(len(h)) {
		return nil, false
	}
	i := epoch - h[0].Epoch
	if h[i].Tag != tag {
		return nil, false
	}
	return h[i:], true
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

// probeScratch is reusable scratch for probeShards: the bitsets of
// shardCandidates' NIF intersection and the per-shard lists of one probe.
// One goroutine uses one scratch at a time.
type probeScratch struct {
	a, b  intset.Bits
	parts [][]int
}

var probeScratchPool = sync.Pool{New: func() any { return new(probeScratch) }}

// ProbeShards evaluates a probe batch that came off the wire — a shard
// server's candidate request — over the shards shardIDs of sn, a snapshot
// pinned from an in-process store. The whole batch is checked before any
// probe runs: a shard id outside [0, NumShards) or an index entry id
// outside the vocabulary fails it with an error wrapping ErrBadProbe.
// Otherwise it returns what ProbeAll returns for the same probes over just
// those shards.
func ProbeShards(ctx context.Context, sn Snapshot, shardIDs []int, probes []Probe, out [][]int) ([][]int, error) {
	s, ok := sn.(*snap)
	if !ok {
		return out[:0], fmt.Errorf("store: probing a %T: not an in-process snapshot", sn)
	}
	shards := make([]*shardSnap, len(shardIDs))
	for i, id := range shardIDs {
		if id < 0 || id >= len(s.shards) {
			return out[:0], fmt.Errorf("store: shard %d out of range [0,%d): %w", id, len(s.shards), ErrBadProbe)
		}
		shards[i] = s.shards[id]
	}
	inRange := func(what string, n int, ids ...int) error {
		for _, id := range ids {
			if id < 0 || id >= n {
				return fmt.Errorf("store: %s entry %d out of range [0,%d): %w", what, id, n, ErrBadProbe)
			}
		}
		return nil
	}
	// Every shard carries the whole vocabulary, so one check per probe
	// covers every shard.
	nf, ni := len(s.supF), len(s.supI)
	for _, p := range probes {
		var err error
		switch p.Kind {
		case index.KindFrequent:
			err = inRange("frequent", nf, p.FreqID)
		case index.KindDIF:
			err = inRange("DIF", ni, p.DifID)
		default:
			if err = inRange("Ups", ni, p.Ups...); err == nil {
				err = inRange("Phi", nf, p.Phi...)
			}
		}
		if err != nil {
			return out[:0], err
		}
	}
	return probeShards(ctx, shards, probes, out)
}

// probeShards is Algorithm 3's batch evaluator over in-process shards, the
// one behind every in-process snapshot's ProbeAll and ProbeShards. For each
// probe it takes every shard's list and merges them once, appending the
// merged list to out[:0]; between probes it polls ctx, and on cancellation
// it returns the lists finished so far with the context's error. Scratch is
// pooled, so a batch allocates only the NIF lists it computes and the
// merges of several shards. An indexed probe on a single shard returns the
// index's own list, which must not be mutated.
func probeShards(ctx context.Context, shards []*shardSnap, probes []Probe, out [][]int) ([][]int, error) {
	out = out[:0]
	sc := probeScratchPool.Get().(*probeScratch)
	defer func() {
		clear(sc.parts)
		probeScratchPool.Put(sc)
	}()
	for i, p := range probes {
		if i > 0 {
			if err := ctx.Err(); err != nil {
				return out, err
			}
		}
		sc.parts = sc.parts[:0]
		for _, sh := range shards {
			sc.parts = append(sc.parts, shardCandidates(sh, p, sc))
		}
		out = append(out, MergeSorted(sc.parts))
	}
	return out, nil
}

// shardCandidates is Algorithm 3's index probe against one in-process shard:
// the shard-restricted FSG list for indexed probes, the Υ-then-Φ
// intersection for NIFs, and the shard's whole id set when no index
// information exists. The NIF intersection runs word-at-a-time over
// compressed bitsets in sc; only the returned list is allocated. Indexed
// probes return the index's own list, which must not be mutated.
func shardCandidates(sh *shardSnap, p Probe, sc *probeScratch) []int {
	idx := sh.set
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
		return sh.ids
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
// database with dense identifiers and a built index set naming no graph
// beyond it.
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
	return idx.CheckGraphIDs(len(db))
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
