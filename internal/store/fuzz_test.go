package store

import (
	"bytes"
	"os"
	"path/filepath"
	"reflect"
	"testing"

	"prague/internal/intset"
)

// FuzzShardMerge checks the two properties the sharded evaluation path
// relies on: MergeSorted is independent of shard order (so concurrent
// per-shard completion order can never leak into results) and duplicate-free
// (so overlapping candidate lists collapse exactly once). Inputs decode a
// byte stream into up to 8 sorted parts.
func FuzzShardMerge(f *testing.F) {
	f.Add([]byte{}, uint8(1))
	f.Add([]byte{3, 1, 4, 1, 5, 9, 2, 6}, uint8(3))
	f.Add([]byte{0, 0, 0, 255, 255, 7, 7}, uint8(8))
	f.Fuzz(func(t *testing.T, data []byte, nparts uint8) {
		n := int(nparts%8) + 1
		parts := make([][]int, n)
		var all []int
		for i, b := range data {
			id := int(b) // ids 0..255; duplicates across parts are fine
			parts[i%n] = append(parts[i%n], id)
			all = append(all, id)
		}
		for i := range parts {
			parts[i] = intset.Normalize(parts[i])
		}
		want := intset.Normalize(all)
		got := MergeSorted(parts)
		if len(got) == 0 && len(want) == 0 {
			return
		}
		if !intset.Equal(got, want) {
			t.Fatalf("merge = %v, want normalized union %v", got, want)
		}
		// Sorted and duplicate-free.
		for i := 1; i < len(got); i++ {
			if got[i-1] >= got[i] {
				t.Fatalf("merge not strictly ascending at %d: %v", i, got)
			}
		}
		// Shard order independence: rotate and reverse the parts.
		rot := append(append([][]int{}, parts[1:]...), parts[0])
		if !intset.Equal(MergeSorted(rot), want) {
			t.Fatalf("merge depends on part rotation")
		}
		rev := make([][]int, n)
		for i := range parts {
			rev[n-1-i] = parts[i]
		}
		if !intset.Equal(MergeSorted(rev), want) {
			t.Fatalf("merge depends on part order")
		}
	})
}

// FuzzIncrementalIndex drives a random insert/delete edit script against a
// sharded store and asserts the tentpole equivalence: after every script the
// surgically maintained per-shard A²F delta lists and A²I id-lists are
// byte-identical to a from-scratch rebuild over the frozen vocabulary, the
// negative-border masks match the rebuilt supports, and the filter table —
// built before the script, then derived per mutation — matches a fresh
// build. Each input byte is one edit: low bit picks insert vs delete; for an
// insert, bit 1 picks a graph with an out-of-vocabulary label and triple and
// the rest its shape; for a delete, the rest select the victim.
func FuzzIncrementalIndex(f *testing.F) {
	f.Add([]byte{}, uint8(1))
	f.Add([]byte{0, 2, 4, 1, 3}, uint8(3))
	f.Add([]byte{255, 254, 253, 0, 1, 2, 7, 8, 9, 16}, uint8(4))
	// An out-of-vocabulary insert deleted again: 18 graphs, the insert takes
	// id 18, and 37>>1 = 18 picks it.
	f.Add([]byte{2, 37}, uint8(1))
	// Two of them (ids 18, 19) deleted newest first.
	f.Add([]byte{6, 2, 39, 37}, uint8(4))

	f.Fuzz(func(t *testing.T, script []byte, nshards uint8) {
		if len(script) > 24 {
			script = script[:24]
		}
		n := int(nshards%4) + 1
		db := testDB(t, 31, 18)
		st, err := NewSharded(db, buildIndex(t, db, 0.25, 2), n)
		if err != nil {
			t.Fatal(err)
		}
		st.FilterTable()
		for step, b := range script {
			if b&1 == 0 {
				g := extraGraph
				if b&2 != 0 {
					g = oovGraph
				}
				if _, err := st.InsertGraph(g(int64(b)>>2 + int64(step)<<8)); err != nil {
					t.Fatal(err)
				}
			} else {
				live := st.LiveIDs()
				if len(live) <= 1 {
					continue
				}
				if err := st.DeleteGraph(live[int(b>>1)%len(live)]); err != nil {
					t.Fatal(err)
				}
			}
		}
		checkIncrementalAgainstRebuild(t, st)
	})
}

// FuzzLoadStore mutates the manifest of a saved one-shard and a saved
// three-shard layout, each holding a tombstone, over their unchanged shard
// directories. LoadSharded must never panic, and any store it returns must
// survive Save followed by LoadSharded with its shape, epoch, tag and live
// universe intact.
func FuzzLoadStore(f *testing.F) {
	db := testDB(f, 32, 16)
	idx := buildIndex(f, db, 0.25, 2)
	var layouts [2]string
	var saved [2][]byte
	for i, n := range []int{1, 3} {
		st, err := NewSharded(db, idx, n)
		if err == nil {
			err = st.DeleteGraph(5)
		}
		layouts[i] = filepath.Join(f.TempDir(), "layout")
		if err == nil {
			err = st.Save(layouts[i])
		}
		if err == nil {
			saved[i], err = os.ReadFile(filepath.Join(layouts[i], manifestFile))
		}
		if err != nil {
			f.Fatal(err)
		}
		f.Add(uint8(i), saved[i])
	}
	for _, edit := range [][2]string{
		{`"shards":3,`, `"shards":1125899906842624,`},
		{`"num_graphs":16,`, `"num_graphs":-16,`},
		{`"deleted":[5]`, `"deleted":[999]`},
		{`"version":2,`, `"version":1,`},
	} {
		seed := bytes.Replace(saved[1], []byte(edit[0]), []byte(edit[1]), 1)
		if bytes.Equal(seed, saved[1]) {
			f.Fatalf("manifest %s holds no %s", saved[1], edit[0])
		}
		f.Add(uint8(1), seed)
	}

	f.Fuzz(func(t *testing.T, layout uint8, manifest []byte) {
		// The input is the manifest alone: the layout's shard directories
		// are linked into a fresh directory beside it.
		src, dir := layouts[layout%2], t.TempDir()
		entries, err := os.ReadDir(src)
		if err != nil {
			t.Fatal(err)
		}
		for _, e := range entries {
			if e.IsDir() {
				if err := os.Symlink(filepath.Join(src, e.Name()), filepath.Join(dir, e.Name())); err != nil {
					t.Fatal(err)
				}
			}
		}
		if err := os.WriteFile(filepath.Join(dir, manifestFile), manifest, 0o644); err != nil {
			t.Fatal(err)
		}
		st, err := LoadSharded(db, dir)
		if err != nil {
			return
		}
		out := filepath.Join(t.TempDir(), "resaved")
		if err := st.Save(out); err != nil {
			t.Fatalf("saving a loaded store: %v", err)
		}
		re, err := LoadSharded(db, out)
		if err != nil {
			t.Fatalf("reloading a saved store: %v", err)
		}
		if re.NumShards() != st.NumShards() || re.Epoch() != st.Epoch() || re.CacheTag() != st.CacheTag() ||
			!reflect.DeepEqual(re.LiveIDs(), st.LiveIDs()) {
			t.Fatalf("round trip changed the store: %d shards, epoch %d, tag %s, %d live; was %d, %d, %s, %d",
				re.NumShards(), re.Epoch(), re.CacheTag(), len(re.LiveIDs()),
				st.NumShards(), st.Epoch(), st.CacheTag(), len(st.LiveIDs()))
		}
	})
}
