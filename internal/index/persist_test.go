package index

import (
	"errors"
	"path/filepath"
	"testing"
)

// TestLoadRejectsEditedIDs saves an index set, rewrites one id in its saved
// metadata or DIF file, and requires Load to fail with ErrInconsistent
// rather than load a set whose first probe would index out of range. It
// does the same for foreign canonical codes — two A²F entries' codes, or
// two DIFs' codes, swapped — and for an MF entry with no fragment graph,
// which would make Lookup serve one fragment's ids for another.
func TestLoadRejectsEditedIDs(t *testing.T) {
	db := testDB(t, 7, 30)
	set, _ := buildSet(t, db, 0.15, 2)
	if set.A2F.NumClusters() == 0 {
		t.Fatal("fixture index has no DF cluster")
	}
	// The first entry with children, and the first MF entry with two
	// delIds: the edits below need them.
	linked, mf := -1, -1
	for i, e := range set.A2F.entries {
		if linked < 0 && len(e.Children) > 0 && len(e.Parents) > 0 {
			linked = i
		}
		if mf < 0 && e.Cluster < 0 && len(e.DelIds) > 1 {
			mf = i
		}
	}
	if linked < 0 || mf < 0 || set.A2I.NumEntries() < 2 {
		t.Fatal("fixture index lacks a linked entry, a multi-id MF entry or two DIFs")
	}
	n := len(set.A2F.entries)
	for name, edit := range map[string]func(*wireMeta, []wireDIF){
		"entry id":        func(m *wireMeta, _ []wireDIF) { m.Entries[linked].ID = linked + 1 },
		"child id":        func(m *wireMeta, _ []wireDIF) { m.Entries[linked].Children[0] = n },
		"parent id":       func(m *wireMeta, _ []wireDIF) { m.Entries[linked].Parents[0] = -1 },
		"cluster":         func(m *wireMeta, _ []wireDIF) { m.Entries[linked].Cluster = len(m.ClusterRoots) },
		"cluster root":    func(m *wireMeta, _ []wireDIF) { m.ClusterRoots[0] = n + 3 },
		"delIds order":    func(m *wireMeta, _ []wireDIF) { d := m.Entries[mf].DelIds; d[0], d[1] = d[1], d[0] },
		"negative fsgIds": func(_ *wireMeta, d []wireDIF) { d[0].FSGIds = append([]int{-1}, d[0].FSGIds...) },
		"swapped entry codes": func(m *wireMeta, _ []wireDIF) {
			m.Entries[0].Code, m.Entries[linked].Code = m.Entries[linked].Code, m.Entries[0].Code
		},
		"swapped DIF codes": func(_ *wireMeta, d []wireDIF) { d[0].Code, d[1].Code = d[1].Code, d[0].Code },
		"missing MF graph":  func(m *wireMeta, _ []wireDIF) { m.Entries[mf].Graph = nil },
	} {
		t.Run(name, func(t *testing.T) {
			dir := t.TempDir()
			if err := set.Save(dir); err != nil {
				t.Fatal(err)
			}
			var meta wireMeta
			var difs []wireDIF
			if err := readGob(filepath.Join(dir, metaFile), &meta); err != nil {
				t.Fatal(err)
			}
			if err := readGob(filepath.Join(dir, a2iFile), &difs); err != nil {
				t.Fatal(err)
			}
			edit(&meta, difs)
			if err := writeGob(filepath.Join(dir, metaFile), meta); err != nil {
				t.Fatal(err)
			}
			if err := writeGob(filepath.Join(dir, a2iFile), difs); err != nil {
				t.Fatal(err)
			}
			if _, err := Load(dir); !errors.Is(err, ErrInconsistent) {
				t.Fatalf("Load after editing the %s: err = %v, want ErrInconsistent", name, err)
			}
		})
	}
}

// TestCheckGraphIDs bounds stored graph ids by the slot table, which Load
// does not know: every id of the fixture is below len(db), none below the
// largest.
func TestCheckGraphIDs(t *testing.T) {
	db := testDB(t, 7, 30)
	set, _ := buildSet(t, db, 0.15, 2)
	if err := set.CheckGraphIDs(len(db)); err != nil {
		t.Fatalf("a freshly built set: %v", err)
	}
	maxID := -1
	for i := range set.A2F.entries {
		if ids := set.A2F.FSGIds(i); len(ids) > 0 {
			maxID = max(maxID, ids[len(ids)-1])
		}
	}
	if err := set.CheckGraphIDs(maxID); !errors.Is(err, ErrInconsistent) {
		t.Fatalf("slot table of %d for graph id %d: err = %v, want ErrInconsistent", maxID, maxID, err)
	}
}
