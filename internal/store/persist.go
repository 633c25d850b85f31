package store

import (
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"

	"prague/internal/graph"
	"prague/internal/index"
)

// Persistence layout. Sharded: one directory holding a manifest plus one
// classic index.Save directory per shard. Mem: the classic index.Save files
// plus the same manifest under a different name.
//
//	dir/
//	  shards.json      {"version":2,"scheme":"splitmix64-mod","shards":N,
//	                    "num_graphs":M,"epoch":E,"min_sup":S,"deleted":[...]}
//	  shard-000/       a2f.gob, df.dat, a2i.gob   (index.Save layout)
//	  shard-001/
//	  ...
//
// num_graphs is the slot-table size including tombstones; deleted lists the
// tombstoned ids, so a mutated store round-trips with its id space (ids are
// never reused) and its epoch intact. Version-1 manifests (and Mem layouts
// saved before the manifest existed) load as epoch 0 with no tombstones.

const (
	manifestFile    = "shards.json"
	memManifestFile = "store.json"
)

// manifestScheme names the graph-id → shard assignment; a layout saved under
// a different scheme must not be silently reinterpreted.
const manifestScheme = "splitmix64-mod"

type manifest struct {
	Version     int    `json:"version"`
	Scheme      string `json:"scheme"`
	Shards      int    `json:"shards"`
	NumGraphs   int    `json:"num_graphs"` // slot count, including tombstones
	Epoch       uint64 `json:"epoch"`
	MinSup      int    `json:"min_sup"`
	Fingerprint string `json:"fingerprint,omitempty"` // lineage fp baked into CacheTag
	Deleted     []int  `json:"deleted,omitempty"`
}

func shardDir(dir string, i int) string {
	return filepath.Join(dir, fmt.Sprintf("shard-%03d", i))
}

// manifestFor captures a snapshot's identity-relevant state.
func manifestFor(s *snap, shards int) manifest {
	m := manifest{
		Version:     2,
		Scheme:      manifestScheme,
		Shards:      shards,
		NumGraphs:   len(s.graphs),
		Epoch:       s.epoch,
		MinSup:      s.minSup,
		Fingerprint: s.fp,
	}
	for id, g := range s.graphs {
		if g == nil {
			m.Deleted = append(m.Deleted, id)
		}
	}
	return m
}

func writeManifest(path string, m manifest) error {
	buf, err := json.Marshal(m)
	if err != nil {
		return err
	}
	return os.WriteFile(path, append(buf, '\n'), 0o644)
}

// writeStoreManifest persists the Mem-layout manifest next to the index
// files.
func writeStoreManifest(dir string, s *snap, shards int) error {
	return writeManifest(filepath.Join(dir, memManifestFile), manifestFor(s, shards))
}

// readStoreManifest reads the Mem-layout manifest; a missing file (a layout
// saved before stores were mutable) returns nil with no error.
func readStoreManifest(dir string) (*manifest, error) {
	buf, err := os.ReadFile(filepath.Join(dir, memManifestFile))
	if os.IsNotExist(err) {
		return nil, nil
	}
	if err != nil {
		return nil, err
	}
	var m manifest
	if err := json.Unmarshal(buf, &m); err != nil {
		return nil, fmt.Errorf("store: %s: %w", memManifestFile, err)
	}
	return &m, nil
}

// applyManifestSlots validates the caller's slot table against a manifest
// and returns an owned copy with the manifest's tombstones forced nil. The
// caller must supply every slot ever allocated (deleted slots may be nil).
func applyManifestSlots(db []*graph.Graph, m *manifest, wantShards int) ([]*graph.Graph, error) {
	if m.Shards != wantShards && wantShards > 0 {
		return nil, fmt.Errorf("store: manifest has %d shards, loading as %d: %w",
			m.Shards, wantShards, ErrManifestMismatch)
	}
	if m.NumGraphs != len(db) {
		return nil, fmt.Errorf("store: layout holds %d graph slots, database has %d: %w",
			m.NumGraphs, len(db), ErrManifestMismatch)
	}
	graphs := append([]*graph.Graph(nil), db...)
	for _, id := range m.Deleted {
		if id < 0 || id >= len(graphs) {
			return nil, fmt.Errorf("store: manifest tombstone %d out of range: %w", id, ErrManifestMismatch)
		}
		graphs[id] = nil
	}
	deleted := make(map[int]bool, len(m.Deleted))
	for _, id := range m.Deleted {
		deleted[id] = true
	}
	live := 0
	for i, g := range graphs {
		if deleted[i] {
			continue
		}
		if g == nil || g.ID != i {
			return nil, fmt.Errorf("store: live slot %d must hold data graph %d: %w", i, i, ErrManifestMismatch)
		}
		live++
	}
	if live == 0 {
		return nil, fmt.Errorf("store: %w", ErrEmptyDatabase)
	}
	return graphs, nil
}

// Save persists the sharded index layout into dir (created if needed),
// including the current epoch and tombstone set.
func (s *Sharded) Save(dir string) error {
	s.mu.Lock()
	defer s.mu.Unlock()
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return err
	}
	cur := s.cur.Load()
	if err := writeManifest(filepath.Join(dir, manifestFile), manifestFor(cur, len(cur.shards))); err != nil {
		return err
	}
	for i, sh := range cur.shards {
		if err := sh.set.Save(shardDir(dir, i)); err != nil {
			return fmt.Errorf("store: saving shard %d: %w", i, err)
		}
	}
	return nil
}

// LoadSharded reconstructs a sharded store from a persisted layout over the
// given database. The manifest must match the slot-table size and the hash
// scheme this build uses; per-shard graph-id assignments are re-derived
// (they are a pure function of id and shard count) and the persisted
// tombstones are reapplied, so the caller supplies every slot ever allocated
// (deleted slots may be nil). The store resumes at the persisted epoch.
func LoadSharded(db []*graph.Graph, dir string) (*Sharded, error) {
	buf, err := os.ReadFile(filepath.Join(dir, manifestFile))
	if err != nil {
		return nil, err
	}
	var m manifest
	if err := json.Unmarshal(buf, &m); err != nil {
		return nil, fmt.Errorf("store: %s: %w", manifestFile, err)
	}
	if m.Scheme != manifestScheme {
		return nil, fmt.Errorf("store: layout scheme %q, this build uses %q: %w",
			m.Scheme, manifestScheme, ErrManifestMismatch)
	}
	if m.Shards < 1 {
		return nil, fmt.Errorf("store: manifest shard count %d: %w", m.Shards, ErrBadShardCount)
	}
	if len(db) == 0 {
		return nil, fmt.Errorf("store: %w", ErrEmptyDatabase)
	}
	graphs, err := applyManifestSlots(db, &m, m.Shards)
	if err != nil {
		return nil, err
	}
	sets := make([]*index.Set, m.Shards)
	for i := range sets {
		set, err := index.Load(shardDir(dir, i))
		if err != nil {
			return nil, fmt.Errorf("store: loading shard %d: %w", i, err)
		}
		sets[i] = set
	}
	minSup := m.MinSup
	if m.Version < 2 {
		// Legacy layout: the threshold was not recorded; rederive it from
		// the mining parameters (the build database size is num_graphs —
		// pre-mutation layouts never hold tombstones).
		minSup = minSupportOf(sets[0].Alpha, m.NumGraphs)
	}
	// m.Fingerprint restores the lineage fp; "" (legacy) recomputes it from
	// content, which matches the original because legacy layouts are epoch 0.
	return assemble(graphs, sets, minSup, m.Epoch, m.Fingerprint)
}
