package store

import (
	"fmt"

	"prague/internal/graph"
	"prague/internal/index"
)

// Mem is the monolithic store: one flat graph slot table and one shared
// index set, held as a single shard so shard-generic callers need no special
// case. Like every store it is mutable: InsertGraph/DeleteGraph maintain the
// index lists incrementally and publish epoch snapshots.
type Mem struct {
	base
}

// NewMem wraps a database and its indexes as a single-shard store. The
// database must be non-empty with dense ids and the index set non-nil. The
// store takes ownership of both: the index set is sealed (DF clusters
// loaded, list memos materialized) so snapshots can share entries safely.
func NewMem(db []*graph.Graph, idx *index.Set) (*Mem, error) {
	if err := Validate(db, idx); err != nil {
		return nil, fmt.Errorf("store: %w", err)
	}
	return newMemAt(db, idx, 0)
}

func newMemAt(db []*graph.Graph, idx *index.Set, epoch uint64) (*Mem, error) {
	graphs := append([]*graph.Graph(nil), db...)
	ids := liveByShard(graphs, 1)[0]
	sh := &shardSnap{id: 0, ids: ids, set: idx}
	m := &Mem{}
	m.cur.Store(newSnap("m", graphs, []*shardSnap{sh}, minSupportOf(idx.Alpha, idx.NumGraphs), epoch, ""))
	return m, nil
}

// Save persists the index layout plus a store manifest recording the epoch,
// the frozen support threshold, and the tombstoned ids.
func (m *Mem) Save(dir string) error {
	m.mu.Lock()
	defer m.mu.Unlock()
	s := m.cur.Load()
	if err := s.shards[0].set.Save(dir); err != nil {
		return err
	}
	return writeStoreManifest(dir, s, 1)
}

// LoadMem loads a persisted monolithic layout over the given database. The
// slot table must match what was saved: len(db) equals the persisted slot
// count, with tombstoned slots allowed to be nil (they are forced nil
// regardless). Layouts saved before the store manifest existed load at
// epoch 0 with no tombstones.
func LoadMem(db []*graph.Graph, dir string) (*Mem, error) {
	idx, err := index.Load(dir)
	if err != nil {
		return nil, err
	}
	if err := idx.CheckGraphIDs(len(db)); err != nil {
		return nil, err
	}
	man, err := readStoreManifest(dir)
	if err != nil {
		return nil, err
	}
	if man == nil {
		return NewMem(db, idx)
	}
	graphs, err := applyManifestSlots(db, man, 1)
	if err != nil {
		return nil, err
	}
	ids := liveByShard(graphs, 1)[0]
	sh := &shardSnap{id: 0, ids: ids, set: idx}
	m := &Mem{}
	m.cur.Store(newSnap("m", graphs, []*shardSnap{sh}, man.MinSup, man.Epoch, man.Fingerprint))
	return m, nil
}
