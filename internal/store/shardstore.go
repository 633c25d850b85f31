package store

import (
	"fmt"

	"prague/internal/graph"
	"prague/internal/index"
)

// Sharded is the store: the database hash-partitioned into n shards, each
// owning its own A²F/A²I index restricted to the shard's graphs (built
// concurrently by index.PartitionSets). n == 1 is the monolithic layout: its
// one shard holds the built index set itself. The full graph slot table
// stays addressable by global id; only the index layout is partitioned.
// Every shard keeps the complete fragment vocabulary, so classification is
// identical across shard counts and merged per-shard candidate lists
// reconstruct the monolithic lists exactly. Mutations touch only the owning
// shard's index (the other shards' sets are shared by pointer across
// epochs), which is what makes mutation throughput scale with shard count.
type Sharded struct {
	base
}

// shardOf is the deterministic graph-id → shard assignment: a 64-bit finalizer
// mix (splitmix64) mod n. It is a pure function of (id, n), so assignments
// are stable across processes and a persisted layout can be re-derived.
func shardOf(id, n int) int {
	x := uint64(id)
	x ^= x >> 33
	x *= 0xff51afd7ed558ccd
	x ^= x >> 33
	x *= 0xc4ceb9fe1a85ec53
	x ^= x >> 33
	return int(x % uint64(n))
}

// NewSharded partitions the database and its built indexes into n shards.
// The database must be non-empty with dense ids and the index set non-nil.
// The store takes ownership of both: index sets are sealed (DF clusters
// loaded, list memos materialized) so snapshots can share entries safely.
// n == 1 makes no partition copy: the one shard holds idx itself. Shards
// left empty by the hash assignment are legal: their index sets carry the
// vocabulary with empty FSG lists.
func NewSharded(db []*graph.Graph, idx *index.Set, n int) (*Sharded, error) {
	if n < 1 {
		return nil, fmt.Errorf("store: %d shards: %w", n, ErrBadShardCount)
	}
	if err := Validate(db, idx); err != nil {
		return nil, fmt.Errorf("store: %w", err)
	}
	sets := []*index.Set{idx}
	if n > 1 {
		var err error
		if sets, _, err = index.PartitionSets(idx, n, func(id int) int { return shardOf(id, n) }); err != nil {
			return nil, fmt.Errorf("store: %w", err)
		}
	}
	minSup := minSupportOf(idx.Alpha, idx.NumGraphs)
	return assemble(append([]*graph.Graph(nil), db...), sets, minSup, 0, "")
}

// NewMem is NewSharded(db, idx, 1), the monolithic layout.
func NewMem(db []*graph.Graph, idx *index.Set) (*Sharded, error) { return NewSharded(db, idx, 1) }

// assemble builds the Sharded from per-shard index sets, deriving each
// shard's live graph-id list from the hash assignment over non-nil slots.
func assemble(graphs []*graph.Graph, sets []*index.Set, minSup int, epoch uint64, fp string) (*Sharded, error) {
	n := len(sets)
	byShard := liveByShard(graphs, n)
	shards := make([]*shardSnap, n)
	for i, set := range sets {
		if set.NumGraphs != len(byShard[i]) {
			return nil, fmt.Errorf("store: shard %d indexes %d graphs but owns %d: %w",
				i, set.NumGraphs, len(byShard[i]), ErrManifestMismatch)
		}
		shards[i] = &shardSnap{id: i, ids: byShard[i], set: set}
	}
	s := &Sharded{}
	s.cur.Store(newSnap(fmt.Sprintf("s%d", n), graphs, shards, minSup, epoch, fp))
	return s, nil
}
