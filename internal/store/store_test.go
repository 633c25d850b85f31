package store

import (
	"context"
	"errors"
	"math/rand"
	"strings"
	"testing"

	"prague/internal/graph"
	"prague/internal/index"
	"prague/internal/intset"
	"prague/internal/mining"
)

// testDB grows a seeded random molecule-like database with dense ids.
func testDB(t testing.TB, seed int64, n int) []*graph.Graph {
	t.Helper()
	r := rand.New(rand.NewSource(seed))
	labels := []string{"C", "C", "C", "N", "O", "S"}
	var db []*graph.Graph
	for i := 0; i < n; i++ {
		nodes := 3 + r.Intn(6)
		g := graph.New(i)
		for v := 0; v < nodes; v++ {
			g.AddNode(labels[r.Intn(len(labels))])
		}
		for v := 1; v < nodes; v++ {
			g.MustAddEdge(v, r.Intn(v))
		}
		for k := 0; k < r.Intn(3); k++ {
			u, v := r.Intn(nodes), r.Intn(nodes)
			if u != v && !g.HasEdge(u, v) {
				g.MustAddEdge(u, v)
			}
		}
		db = append(db, g)
	}
	return db
}

func buildIndex(t testing.TB, db []*graph.Graph, alpha float64, beta int) *index.Set {
	t.Helper()
	res, err := mining.Mine(db, mining.Options{MinSupportRatio: alpha, MaxSize: 6, IncludeZeroSupportPairs: true})
	if err != nil {
		t.Fatal(err)
	}
	idx, err := index.Build(res, alpha, beta)
	if err != nil {
		t.Fatal(err)
	}
	return idx
}

func TestValidateSentinels(t *testing.T) {
	db := testDB(t, 1, 8)
	idx := buildIndex(t, db, 0.3, 2)
	if _, err := NewSharded(nil, idx, 1); !errors.Is(err, ErrEmptyDatabase) {
		t.Errorf("NewSharded(nil db, 1) = %v, want ErrEmptyDatabase", err)
	}
	if _, err := NewSharded(db, nil, 1); !errors.Is(err, ErrNilIndex) {
		t.Errorf("NewSharded(nil idx, 1) = %v, want ErrNilIndex", err)
	}
	if _, err := NewSharded(nil, idx, 4); !errors.Is(err, ErrEmptyDatabase) {
		t.Errorf("NewSharded(nil db) = %v, want ErrEmptyDatabase", err)
	}
	if _, err := NewSharded(db, nil, 4); !errors.Is(err, ErrNilIndex) {
		t.Errorf("NewSharded(nil idx) = %v, want ErrNilIndex", err)
	}
	if _, err := NewSharded(db, idx, 0); !errors.Is(err, ErrBadShardCount) {
		t.Errorf("NewSharded(n=0) = %v, want ErrBadShardCount", err)
	}
	// Sparse ids are rejected.
	db[3].ID = 99
	if _, err := NewSharded(db, idx, 1); err == nil {
		t.Error("sparse graph id accepted")
	}
	db[3].ID = 3
}

// shardsOf returns a pinned in-process snapshot's shards.
func shardsOf(sn Snapshot) []*shardSnap { return sn.(*snap).shards }

// TestMemStore checks NewMem's monolithic layout: one shard owning every
// graph.
func TestMemStore(t *testing.T) {
	db := testDB(t, 2, 10)
	idx := buildIndex(t, db, 0.3, 2)
	m, err := NewMem(db, idx)
	if err != nil {
		t.Fatal(err)
	}
	if m.NumShards() != 1 || m.NumGraphs() != len(db) {
		t.Fatalf("NumShards=%d NumGraphs=%d", m.NumShards(), m.NumGraphs())
	}
	if tag := m.CacheTag(); !strings.HasPrefix(tag, "s1:") || !strings.HasSuffix(tag, "@0") {
		t.Errorf("CacheTag = %q, want s1:<fingerprint>@0", tag)
	}
	sh := shardsOf(m.Pin())[0]
	if sh.id != 0 || len(sh.ids) != len(db) {
		t.Fatalf("shard 0: id=%d graphs=%d", sh.id, len(sh.ids))
	}
	for i, id := range sh.ids {
		if id != i {
			t.Fatalf("shard ids[%d] = %d", i, id)
		}
		if m.ShardOf(id) != 0 {
			t.Fatalf("ShardOf(%d) = %d", id, m.ShardOf(id))
		}
	}
	if m.Graph(3) != db[3] {
		t.Error("Graph(3) mismatch")
	}
}

// TestOneShardSharesTheIndex pins the monolithic layout's cost: one shard
// holds the built index set itself, where more shards hold partition
// copies.
func TestOneShardSharesTheIndex(t *testing.T) {
	db := testDB(t, 2, 10)
	idx := buildIndex(t, db, 0.3, 2)
	one, err := NewSharded(db, idx, 1)
	if err != nil {
		t.Fatal(err)
	}
	if set := shardsOf(one.Pin())[0].set; set != idx {
		t.Errorf("the one shard holds %p, want the built set %p", set, idx)
	}
	two, err := NewSharded(db, idx, 2)
	if err != nil {
		t.Fatal(err)
	}
	for i, sh := range shardsOf(two.Pin()) {
		if sh.set == idx {
			t.Errorf("shard %d of 2 holds the built set, not its partition", i)
		}
	}
}

// TestShardPartition checks that the shards form a disjoint, exhaustive,
// stable partition of the database.
func TestShardPartition(t *testing.T) {
	db := testDB(t, 3, 40)
	idx := buildIndex(t, db, 0.2, 2)
	st, err := NewSharded(db, idx, 4)
	if err != nil {
		t.Fatal(err)
	}
	if st.NumShards() != 4 || st.NumGraphs() != len(db) {
		t.Fatalf("NumShards=%d NumGraphs=%d", st.NumShards(), st.NumGraphs())
	}
	if tag := st.CacheTag(); !strings.HasPrefix(tag, "s4:") || !strings.HasSuffix(tag, "@0") {
		t.Errorf("CacheTag = %q, want s4:<fingerprint>@0", tag)
	}
	seen := map[int]int{}
	total := 0
	for i, sh := range shardsOf(st.Pin()) {
		if sh.id != i {
			t.Fatalf("shard %d reports id %d", i, sh.id)
		}
		ids := sh.ids
		if len(ids) != sh.set.NumGraphs {
			t.Fatalf("shard %d: len(ids)=%d idx.NumGraphs=%d", i, len(ids), sh.set.NumGraphs)
		}
		for j, id := range ids {
			if j > 0 && ids[j-1] >= id {
				t.Fatalf("shard %d ids not strictly ascending at %d", i, j)
			}
			if prev, dup := seen[id]; dup {
				t.Fatalf("graph %d owned by shards %d and %d", id, prev, i)
			}
			seen[id] = i
			if st.ShardOf(id) != i {
				t.Fatalf("ShardOf(%d) = %d, owner is %d", id, st.ShardOf(id), i)
			}
		}
		total += len(ids)
	}
	if total != len(db) {
		t.Fatalf("shards own %d graphs, database has %d", total, len(db))
	}
	// The hash assignment is a pure function: a second build agrees.
	st2, err := NewSharded(db, idx, 4)
	if err != nil {
		t.Fatal(err)
	}
	for id := range db {
		if st.ShardOf(id) != st2.ShardOf(id) {
			t.Fatalf("ShardOf(%d) unstable across builds", id)
		}
	}
}

// TestShardedListsMatchMonolithic is the partition identity at the index
// level: for every A²F and A²I entry, the deterministic merge of per-shard
// FSG id lists equals the monolithic list exactly.
func TestShardedListsMatchMonolithic(t *testing.T) {
	db := testDB(t, 4, 50)
	idx := buildIndex(t, db, 0.2, 2)
	for _, n := range []int{1, 3, 5} {
		st, err := NewSharded(db, idx, n)
		if err != nil {
			t.Fatal(err)
		}
		shards := shardsOf(st.Pin())
		for id := 0; id < idx.A2F.NumEntries(); id++ {
			parts := make([][]int, n)
			for i, sh := range shards {
				parts[i] = sh.set.A2F.FSGIds(id)
			}
			if got, want := MergeSorted(parts), idx.A2F.FSGIds(id); !intset.Equal(got, want) {
				t.Fatalf("n=%d A2F entry %d (%s): merged %v, want %v", n, id, idx.A2F.Code(id), got, want)
			}
		}
		for id := 0; id < idx.A2I.NumEntries(); id++ {
			parts := make([][]int, n)
			for i, sh := range shards {
				parts[i] = sh.set.A2I.FSGIds(id)
			}
			if got, want := MergeSorted(parts), idx.A2I.FSGIds(id); !intset.Equal(got, want) {
				t.Fatalf("n=%d A2I entry %d (%s): merged %v, want %v", n, id, idx.A2I.Code(id), got, want)
			}
		}
		// The fragment vocabulary is replicated: classification through the
		// store matches the global index for every indexed code.
		for id := 0; id < idx.A2F.NumEntries(); id++ {
			code := idx.A2F.Code(id)
			k, e := st.Lookup(code)
			wk, we := idx.Lookup(code)
			if k != wk || e != we {
				t.Fatalf("n=%d Lookup(%s) = (%v,%d), want (%v,%d)", n, code, k, e, wk, we)
			}
		}
	}
}

func TestMergeSorted(t *testing.T) {
	if got := MergeSorted(nil); got != nil {
		t.Errorf("MergeSorted(nil) = %v", got)
	}
	one := []int{1, 3, 5}
	if got := MergeSorted([][]int{one}); !intset.Equal(got, one) {
		t.Errorf("single part: %v", got)
	}
	parts := [][]int{{4, 9}, {0, 2, 7}, nil, {1, 8}}
	want := []int{0, 1, 2, 4, 7, 8, 9}
	if got := MergeSorted(parts); !intset.Equal(got, want) {
		t.Errorf("MergeSorted = %v, want %v", got, want)
	}
	// Order independence.
	rev := [][]int{{1, 8}, nil, {0, 2, 7}, {4, 9}}
	if got := MergeSorted(rev); !intset.Equal(got, want) {
		t.Errorf("reversed parts: %v", got)
	}
}

func TestSplitBy(t *testing.T) {
	db := testDB(t, 5, 30)
	idx := buildIndex(t, db, 0.2, 2)
	st, err := NewSharded(db, idx, 3)
	if err != nil {
		t.Fatal(err)
	}
	ids := []int{0, 3, 7, 12, 25, 29}
	parts := SplitBy(st, ids)
	if len(parts) != st.NumShards() {
		t.Fatalf("SplitBy returned %d parts", len(parts))
	}
	for si, part := range parts {
		for _, id := range part {
			if st.ShardOf(id) != si {
				t.Fatalf("id %d in part %d, ShardOf = %d", id, si, st.ShardOf(id))
			}
		}
	}
	if got := MergeSorted(parts); !intset.Equal(got, ids) {
		t.Fatalf("merge(split) = %v, want %v", got, ids)
	}
}

// TestPersistRoundTrip saves a sharded layout and reloads it, comparing
// every per-shard FSG list and the shard-to-graph assignment.
func TestPersistRoundTrip(t *testing.T) {
	db := testDB(t, 6, 35)
	idx := buildIndex(t, db, 0.2, 2)
	st, err := NewSharded(db, idx, 4)
	if err != nil {
		t.Fatal(err)
	}
	dir := t.TempDir()
	if err := st.Save(dir); err != nil {
		t.Fatal(err)
	}
	got, err := LoadSharded(db, dir)
	if err != nil {
		t.Fatal(err)
	}
	if got.NumShards() != st.NumShards() || got.NumGraphs() != st.NumGraphs() {
		t.Fatalf("loaded shape %d/%d, want %d/%d", got.NumShards(), got.NumGraphs(), st.NumShards(), st.NumGraphs())
	}
	gotShards := shardsOf(got.Pin())
	for i, a := range shardsOf(st.Pin()) {
		b := gotShards[i]
		if !intset.Equal(a.ids, b.ids) {
			t.Fatalf("shard %d graph ids differ", i)
		}
		ai, bi := a.set, b.set
		if ai.A2F.NumEntries() != bi.A2F.NumEntries() || ai.A2I.NumEntries() != bi.A2I.NumEntries() {
			t.Fatalf("shard %d entry counts differ", i)
		}
		for id := 0; id < ai.A2F.NumEntries(); id++ {
			if ai.A2F.Code(id) != bi.A2F.Code(id) {
				t.Fatalf("shard %d A2F entry %d code differs", i, id)
			}
			if !intset.Equal(ai.A2F.FSGIds(id), bi.A2F.FSGIds(id)) {
				t.Fatalf("shard %d A2F entry %d ids differ", i, id)
			}
		}
		for id := 0; id < ai.A2I.NumEntries(); id++ {
			if ai.A2I.Code(id) != bi.A2I.Code(id) {
				t.Fatalf("shard %d A2I entry %d code differs", i, id)
			}
			if !intset.Equal(ai.A2I.FSGIds(id), bi.A2I.FSGIds(id)) {
				t.Fatalf("shard %d A2I entry %d ids differ", i, id)
			}
		}
	}
	// A database of a different size does not load against the manifest.
	if _, err := LoadSharded(db[:len(db)-1], dir); !errors.Is(err, ErrManifestMismatch) {
		t.Errorf("LoadSharded(short db) = %v, want ErrManifestMismatch", err)
	}
}

// TestStoresRejectIndexOfLargerDB hands the store constructor an index set
// built over twice the database: it names graphs the store does not have,
// and both shard counts fail with index.ErrInconsistent.
func TestStoresRejectIndexOfLargerDB(t *testing.T) {
	db := testDB(t, 6, 36)
	idx := buildIndex(t, db, 0.2, 2)
	short := db[:len(db)/2]
	if _, err := NewSharded(short, idx, 1); !errors.Is(err, index.ErrInconsistent) {
		t.Errorf("NewSharded(…, 1): err = %v, want index.ErrInconsistent", err)
	}
	if _, err := NewSharded(short, idx, 2); !errors.Is(err, index.ErrInconsistent) {
		t.Errorf("NewSharded(…, 2): err = %v, want index.ErrInconsistent", err)
	}
}

// TestProbeShards checks the shard server's evaluator: over every shard it
// answers what ProbeAll answers, and a shard id or entry id outside the
// snapshot fails the whole batch with ErrBadProbe.
func TestProbeShards(t *testing.T) {
	db := testDB(t, 7, 30)
	idx := buildIndex(t, db, 0.2, 2)
	st, err := NewSharded(db, idx, 3)
	if err != nil {
		t.Fatal(err)
	}
	ctx := context.Background()
	sn := st.Pin()
	probes := []Probe{{Kind: index.KindNone}, {Kind: index.KindFrequent, FreqID: 0}, {Kind: index.KindDIF, DifID: 0}}
	got, err := ProbeShards(ctx, sn, []int{0, 1, 2}, probes, nil)
	if err != nil {
		t.Fatal(err)
	}
	want, err := sn.ProbeAll(ctx, probes, 0, nil)
	if err != nil {
		t.Fatal(err)
	}
	for i := range probes {
		if !intset.Equal(got[i], want[i]) {
			t.Fatalf("probe %d: %v over every shard, ProbeAll %v", i, got[i], want[i])
		}
	}
	nf, ni := idx.A2F.NumEntries(), idx.A2I.NumEntries()
	for _, bad := range []struct {
		shards []int
		probe  Probe
	}{
		{[]int{3}, Probe{Kind: index.KindNone}},
		{[]int{-1}, Probe{Kind: index.KindNone}},
		{[]int{0}, Probe{Kind: index.KindFrequent, FreqID: nf}},
		{[]int{0}, Probe{Kind: index.KindDIF, DifID: -1}},
		{[]int{0}, Probe{Kind: index.KindNone, Ups: []int{ni}}},
		{[]int{0}, Probe{Kind: index.KindNone, Phi: []int{0, nf}}},
	} {
		if _, err := ProbeShards(ctx, sn, bad.shards, []Probe{{Kind: index.KindNone}, bad.probe}, nil); !errors.Is(err, ErrBadProbe) {
			t.Errorf("shards %v, probe %+v: err = %v, want ErrBadProbe", bad.shards, bad.probe, err)
		}
	}
}
