package store

import (
	"errors"
	"fmt"
	"math/rand"
	"os"
	"path/filepath"
	"sync"
	"testing"

	"prague/internal/graph"
	"prague/internal/index"
	"prague/internal/intset"
	"prague/internal/prefilter"
)

// extraGraph derives a fresh connected insertable graph from a seed (ids are
// assigned by the store, so the initial id is irrelevant).
func extraGraph(seed int64) *graph.Graph {
	r := rand.New(rand.NewSource(seed))
	labels := []string{"C", "C", "N", "O"}
	nodes := 2 + r.Intn(6)
	g := graph.New(-1)
	for v := 0; v < nodes; v++ {
		g.AddNode(labels[r.Intn(len(labels))])
	}
	for v := 1; v < nodes; v++ {
		g.MustAddEdge(v, r.Intn(v))
	}
	return g
}

// oovGraph is extraGraph plus a C-Hg triple bond: a label and an edge
// triple no graph of testDB has.
func oovGraph(seed int64) *graph.Graph {
	g := extraGraph(seed)
	c := g.AddNode("C")
	g.MustAddEdge(0, c)
	hg := g.AddNode("Hg")
	if err := g.AddLabeledEdge(c, hg, "3"); err != nil {
		panic(err)
	}
	return g
}

// filterProbes are the query fragments the filter-table parity check asks
// the chooser's questions about: common, repeated, rare and unseen features.
func filterProbes() []*graph.Graph {
	path := func(labels ...string) *graph.Graph {
		g := graph.New(-1)
		for i, l := range labels {
			g.AddNode(l)
			if i > 0 {
				g.MustAddEdge(i-1, i)
			}
		}
		return g
	}
	bond := graph.New(-1)
	bond.AddNode("C")
	bond.AddNode("Hg")
	if err := bond.AddLabeledEdge(0, 1, "3"); err != nil {
		panic(err)
	}
	return []*graph.Graph{
		path("C", "C"), path("C", "N", "C"), path("O", "C", "O"), path("S", "C"),
		path("Hg"), path("C", "Hg"), path("Hg", "C", "Hg"), bond,
	}
}

// checkFilterTable compares the snapshot's filter table — built or derived
// per mutation — with a from-scratch prefilter.Build over the same live
// graphs: rows and live-document counts by feature, then every prefilter
// question on filterProbes for every live id.
func checkFilterTable(t *testing.T, s *snap) {
	t.Helper()
	got, _ := s.FilterTable()
	want := prefilter.Build(s.live, s.Graph)
	if err := got.Diff(want); err != nil {
		t.Fatalf("epoch %d: maintained filter table diverges from rebuild: %v", s.epoch, err)
	}
	for fi, f := range filterProbes() {
		gp, wp := got.Profile(f), want.Profile(f)
		if gp.Unknown != wp.Unknown || gp.RepeatedFeatures() != wp.RepeatedFeatures() {
			t.Fatalf("epoch %d, probe %d: profile (unknown %v, repeated %v), rebuild (%v, %v)",
				s.epoch, fi, gp.Unknown, gp.RepeatedFeatures(), wp.Unknown, wp.RepeatedFeatures())
		}
		for _, id := range s.live {
			if gp.Admits(got.Row(id)) != wp.Admits(want.Row(id)) {
				t.Fatalf("epoch %d, probe %d, graph %d: the count check disagrees with rebuild", s.epoch, fi, id)
			}
		}
	}
}

// checkIncrementalAgainstRebuild pins the tentpole acceptance criterion:
// after any edit script, every shard's surgically maintained A²F/A²I lists
// are byte-identical to a from-scratch rebuild over the shard's live graphs,
// the negative-border masks equal the masks derived from those rebuilt
// supports, and the filter table agrees with a from-scratch build.
func checkIncrementalAgainstRebuild(t *testing.T, st Store) {
	t.Helper()
	s := st.Pin().(*snap)
	checkFilterTable(t, s)
	rebuiltSupF := make([]int, len(s.supF))
	rebuiltSupI := make([]int, len(s.supI))
	for _, sh := range s.shards {
		rebuilt := sh.set.RebuildLists(sh.ids, func(id int) *graph.Graph { return s.graphs[id] })
		if got, want := sh.set.DumpLists(), rebuilt.DumpLists(); got != want {
			t.Fatalf("shard %d: incremental lists diverge from rebuild:\n got: %s\nwant: %s", sh.id, got, want)
		}
		for i := range rebuiltSupF {
			rebuiltSupF[i] += len(rebuilt.A2F.FSGIds(i))
		}
		for i := range rebuiltSupI {
			rebuiltSupI[i] += len(rebuilt.A2I.FSGIds(i))
		}
	}
	for i := range rebuiltSupF {
		if s.supF[i] != rebuiltSupF[i] {
			t.Fatalf("a2f entry %d: maintained support %d, rebuilt %d", i, s.supF[i], rebuiltSupF[i])
		}
		if s.maskF[i] != (rebuiltSupF[i] < s.minSup) {
			t.Fatalf("a2f entry %d: mask %v inconsistent with support %d (minSup %d)",
				i, s.maskF[i], rebuiltSupF[i], s.minSup)
		}
	}
	for i := range rebuiltSupI {
		if s.supI[i] != rebuiltSupI[i] {
			t.Fatalf("a2i entry %d: maintained support %d, rebuilt %d", i, s.supI[i], rebuiltSupI[i])
		}
	}
}

func TestMutationLockstepAcrossLayouts(t *testing.T) {
	db := testDB(t, 21, 30)
	idx := buildIndex(t, db, 0.25, 2)
	mem, err := NewMem(db, idx)
	if err != nil {
		t.Fatal(err)
	}
	shd, err := NewSharded(db, buildIndex(t, db, 0.25, 2), 4)
	if err != nil {
		t.Fatal(err)
	}

	r := rand.New(rand.NewSource(5))
	for step := 0; step < 20; step++ {
		live := mem.LiveIDs()
		if r.Intn(2) == 0 || len(live) < 5 {
			id1, err1 := mem.InsertGraph(extraGraph(int64(step)))
			id2, err2 := shd.InsertGraph(extraGraph(int64(step)))
			if err1 != nil || err2 != nil {
				t.Fatalf("step %d: insert errors %v / %v", step, err1, err2)
			}
			if id1 != id2 {
				t.Fatalf("step %d: layouts assigned different ids %d / %d", step, id1, id2)
			}
		} else {
			victim := live[r.Intn(len(live))]
			if err := mem.DeleteGraph(victim); err != nil {
				t.Fatalf("step %d: mem delete: %v", step, err)
			}
			if err := shd.DeleteGraph(victim); err != nil {
				t.Fatalf("step %d: sharded delete: %v", step, err)
			}
		}
		if !intset.Equal(mem.LiveIDs(), shd.LiveIDs()) {
			t.Fatalf("step %d: live universes diverged", step)
		}
		if mem.Epoch() != shd.Epoch() || mem.Epoch() != uint64(step+1) {
			t.Fatalf("step %d: epochs %d / %d", step, mem.Epoch(), shd.Epoch())
		}
		// Classification (including negative-border masking) is derived from
		// global supports, so it must be layout-independent.
		vocab := mem.Pin().(*snap).shards[0].set
		for i := 0; i < vocab.A2F.NumEntries(); i++ {
			code := vocab.A2F.Code(i)
			mk, mid := mem.Lookup(code)
			sk, sid := shd.Lookup(code)
			if mk != sk || mid != sid {
				t.Fatalf("step %d: Lookup(%q) = (%v,%d) mem vs (%v,%d) sharded", step, code, mk, mid, sk, sid)
			}
		}
		// Merged sharded lists reconstruct the monolithic lists exactly.
		memSet := mem.Pin().Shard(0).Index()
		for i := 0; i < memSet.A2F.NumEntries(); i++ {
			parts := make([][]int, shd.NumShards())
			for si := 0; si < shd.NumShards(); si++ {
				parts[si] = shd.Pin().Shard(si).Index().A2F.FSGIds(i)
			}
			if !intset.Equal(MergeSorted(parts), memSet.A2F.FSGIds(i)) {
				t.Fatalf("step %d: a2f entry %d: merged shard lists diverge from monolithic", step, i)
			}
		}
		checkIncrementalAgainstRebuild(t, mem)
		checkIncrementalAgainstRebuild(t, shd)
	}
}

func TestMutationValidation(t *testing.T) {
	db := testDB(t, 22, 8)
	st, err := NewMem(db, buildIndex(t, db, 0.3, 2))
	if err != nil {
		t.Fatal(err)
	}
	if _, err := st.InsertGraph(nil); !errors.Is(err, ErrBadGraph) {
		t.Errorf("InsertGraph(nil) = %v, want ErrBadGraph", err)
	}
	if _, err := st.InsertGraph(graph.New(-1)); !errors.Is(err, ErrBadGraph) {
		t.Errorf("InsertGraph(empty) = %v, want ErrBadGraph", err)
	}
	disconnected := graph.New(-1)
	disconnected.AddNode("C")
	disconnected.AddNode("C")
	if _, err := st.InsertGraph(disconnected); !errors.Is(err, ErrBadGraph) {
		t.Errorf("InsertGraph(disconnected) = %v, want ErrBadGraph", err)
	}
	if err := st.DeleteGraph(99); !errors.Is(err, ErrNoSuchGraph) {
		t.Errorf("DeleteGraph(99) = %v, want ErrNoSuchGraph", err)
	}
	if err := st.DeleteGraph(3); err != nil {
		t.Fatal(err)
	}
	if err := st.DeleteGraph(3); !errors.Is(err, ErrNoSuchGraph) {
		t.Errorf("double delete = %v, want ErrNoSuchGraph", err)
	}
	if st.Graph(3) != nil {
		t.Error("deleted slot still holds a graph")
	}
	for _, id := range st.LiveIDs() {
		if id == 3 {
			t.Error("deleted id still live")
		}
	}
	// Draining the store entirely is refused: every layer assumes a
	// non-empty database.
	for _, id := range append([]int(nil), st.LiveIDs()...) {
		last := len(st.LiveIDs()) == 1
		err := st.DeleteGraph(id)
		if last {
			if !errors.Is(err, ErrEmptyDatabase) {
				t.Fatalf("deleting the last graph = %v, want ErrEmptyDatabase", err)
			}
			break
		} else if err != nil {
			t.Fatal(err)
		}
	}
}

// TestCacheTagLineage pins the CacheTag contract that the tag-keyed shared
// candidate cache (candcache) depends on: a tag identifies the computation
// completely, so it must capture the
// mutation *history*, not just a content fingerprint frozen at construction
// plus an epoch counter. Two stores with identical initial content applying
// different mutation sequences land on the same epoch with different
// databases — sharing a tag there aliases cache entries across stores and
// silently corrupts answers. Replicas applying identical sequences must keep
// identical tags at every step: that equality is what lets the remote
// store's lockstep mutation broadcast share one client-side cache across all
// endpoints.
func TestCacheTagLineage(t *testing.T) {
	db := testDB(t, 29, 12)
	build := func() Store {
		st, err := NewMem(db, buildIndex(t, db, 0.25, 2))
		if err != nil {
			t.Fatal(err)
		}
		return st
	}
	a, b, rep := build(), build(), build()
	if a.CacheTag() != b.CacheTag() {
		t.Fatalf("identical unmutated content must share a tag: %q vs %q", a.CacheTag(), b.CacheTag())
	}

	mutate := func(st Store, g *graph.Graph, del int) {
		if _, err := st.InsertGraph(g); err != nil {
			t.Fatal(err)
		}
		if err := st.DeleteGraph(del); err != nil {
			t.Fatal(err)
		}
	}
	mutate(a, extraGraph(7), 0)   // history A
	mutate(b, extraGraph(8), 1)   // history B: same epoch, different database
	mutate(rep, extraGraph(7), 0) // lockstep replica of A

	if a.Epoch() != b.Epoch() {
		t.Fatalf("epochs diverged: %d vs %d", a.Epoch(), b.Epoch())
	}
	if a.CacheTag() == b.CacheTag() {
		t.Fatalf("divergent mutation histories share tag %q at epoch %d; tag-keyed caches would alias across stores",
			a.CacheTag(), a.Epoch())
	}
	if a.CacheTag() != rep.CacheTag() {
		t.Fatalf("lockstep replicas diverged: %q vs %q (mutation broadcast relies on tag equality)",
			a.CacheTag(), rep.CacheTag())
	}
}

func TestPinnedSnapshotIsolation(t *testing.T) {
	db := testDB(t, 23, 15)
	st, err := NewSharded(db, buildIndex(t, db, 0.25, 2), 3)
	if err != nil {
		t.Fatal(err)
	}
	pinned := st.Pin()
	tag0 := pinned.CacheTag()
	live0 := append([]int(nil), pinned.LiveIDs()...)
	lists0 := make([]string, pinned.NumShards())
	for i := range lists0 {
		lists0[i] = pinned.Shard(i).Index().DumpLists()
	}

	if _, err := st.InsertGraph(extraGraph(1)); err != nil {
		t.Fatal(err)
	}
	if err := st.DeleteGraph(live0[0]); err != nil {
		t.Fatal(err)
	}

	if pinned.Epoch() != 0 {
		t.Fatalf("pinned epoch changed to %d", pinned.Epoch())
	}
	if pinned.CacheTag() != tag0 {
		t.Fatalf("pinned CacheTag changed: %q -> %q", tag0, pinned.CacheTag())
	}
	if !intset.Equal(pinned.LiveIDs(), live0) {
		t.Fatal("pinned live universe changed under mutation")
	}
	if pinned.Graph(live0[0]) == nil {
		t.Fatal("pinned snapshot lost a graph deleted in a later epoch")
	}
	for i := range lists0 {
		if pinned.Shard(i).Index().DumpLists() != lists0[i] {
			t.Fatalf("pinned shard %d lists changed under mutation", i)
		}
	}
	if st.Epoch() != 2 || st.CacheTag() == tag0 {
		t.Fatalf("store epoch %d tag %q; mutations must re-tag", st.Epoch(), st.CacheTag())
	}
}

func TestMutatedPersistRoundTrip(t *testing.T) {
	db := testDB(t, 24, 20)
	for name, build := range map[string]func() (Store, error){
		"mem": func() (Store, error) { return NewMem(db, buildIndex(t, db, 0.25, 2)) },
		"sharded": func() (Store, error) {
			return NewSharded(db, buildIndex(t, db, 0.25, 2), 3)
		},
	} {
		t.Run(name, func(t *testing.T) {
			st, err := build()
			if err != nil {
				t.Fatal(err)
			}
			var inserted []*graph.Graph
			for i := 0; i < 4; i++ {
				g := extraGraph(int64(100 + i))
				if _, err := st.InsertGraph(g); err != nil {
					t.Fatal(err)
				}
				inserted = append(inserted, g)
			}
			for _, id := range []int{2, 7, 21} {
				if err := st.DeleteGraph(id); err != nil {
					t.Fatal(err)
				}
			}
			dir := filepath.Join(t.TempDir(), "layout")
			if err := st.Save(dir); err != nil {
				t.Fatal(err)
			}

			// The loader gets the full slot table (deleted slots may be nil).
			slots := append(append([]*graph.Graph(nil), db...), inserted...)
			var loaded Store
			if name == "mem" {
				loaded, err = LoadMem(slots, dir)
			} else {
				loaded, err = LoadSharded(slots, dir)
			}
			if err != nil {
				t.Fatal(err)
			}
			if loaded.Epoch() != st.Epoch() {
				t.Fatalf("loaded epoch %d, want %d", loaded.Epoch(), st.Epoch())
			}
			if loaded.CacheTag() != st.CacheTag() {
				t.Fatalf("loaded CacheTag %q, want %q (same content must share cache entries)",
					loaded.CacheTag(), st.CacheTag())
			}
			if !intset.Equal(loaded.LiveIDs(), st.LiveIDs()) {
				t.Fatal("loaded live universe differs")
			}
			for i := 0; i < st.NumShards(); i++ {
				if got, want := loaded.Shard(i).Index().DumpLists(), st.Shard(i).Index().DumpLists(); got != want {
					t.Fatalf("shard %d lists differ after round trip:\n got: %s\nwant: %s", i, got, want)
				}
			}
			// And the loaded store keeps mutating correctly.
			if _, err := loaded.InsertGraph(extraGraph(999)); err != nil {
				t.Fatal(err)
			}
			checkIncrementalAgainstRebuild(t, loaded)
		})
	}
}

func TestLoadShardedRejectsWrongSlots(t *testing.T) {
	db := testDB(t, 25, 12)
	st, err := NewSharded(db, buildIndex(t, db, 0.3, 2), 2)
	if err != nil {
		t.Fatal(err)
	}
	if err := st.DeleteGraph(5); err != nil {
		t.Fatal(err)
	}
	dir := t.TempDir()
	if err := st.Save(dir); err != nil {
		t.Fatal(err)
	}
	if _, err := LoadSharded(db[:8], dir); !errors.Is(err, ErrManifestMismatch) {
		t.Errorf("short slot table = %v, want ErrManifestMismatch", err)
	}
	bad := append([]*graph.Graph(nil), db...)
	bad[3] = nil // live slot missing
	if _, err := LoadSharded(bad, dir); !errors.Is(err, ErrManifestMismatch) {
		t.Errorf("missing live slot = %v, want ErrManifestMismatch", err)
	}
}

// TestLoadTruncatedFileFails truncates each file of a persisted index set
// to three bytes: index.Load, LoadMem and LoadSharded must each return an
// error, and none may panic.
func TestLoadTruncatedFileFails(t *testing.T) {
	db := testDB(t, 6, 35)
	idx := buildIndex(t, db, 0.2, 2)
	if idx.A2F.NumClusters() == 0 {
		t.Fatal("fixture index has no DF cluster, so df.dat would be empty")
	}
	mono, err := NewMem(db, idx)
	if err != nil {
		t.Fatal(err)
	}
	sharded, err := NewSharded(db, idx, 2)
	if err != nil {
		t.Fatal(err)
	}
	for _, file := range []string{"a2f.gob", "df.dat", "a2i.gob"} {
		t.Run(file, func(t *testing.T) {
			monoDir, shardedDir := t.TempDir(), t.TempDir()
			if err := mono.Save(monoDir); err != nil {
				t.Fatal(err)
			}
			if err := sharded.Save(shardedDir); err != nil {
				t.Fatal(err)
			}
			for _, path := range []string{filepath.Join(monoDir, file), filepath.Join(shardDir(shardedDir, 0), file)} {
				if err := os.Truncate(path, 3); err != nil {
					t.Fatal(err)
				}
			}
			for name, load := range map[string]func() error{
				"index.Load":  func() error { _, err := index.Load(monoDir); return err },
				"LoadMem":     func() error { _, err := LoadMem(db, monoDir); return err },
				"LoadSharded": func() error { _, err := LoadSharded(db, shardedDir); return err },
			} {
				func() {
					defer func() {
						if p := recover(); p != nil {
							t.Errorf("%s panicked on a truncated %s: %v", name, file, p)
						}
					}()
					if err := load(); err == nil {
						t.Errorf("%s accepted a truncated %s", name, file)
					}
				}()
			}
		})
	}
}

// TestMutationStressUnderRace is the mutation stress test verify.sh runs
// with -race: concurrent readers pin snapshots and walk every structure
// while a writer publishes epochs, asserting each reader observes exactly
// one internally consistent epoch per pin.
func TestMutationStressUnderRace(t *testing.T) {
	db := testDB(t, 26, 24)
	st, err := NewSharded(db, buildIndex(t, db, 0.25, 2), 3)
	if err != nil {
		t.Fatal(err)
	}
	const (
		readers = 4
		pins    = 60
		writes  = 40
	)
	var wg sync.WaitGroup
	errc := make(chan error, readers)
	for w := 0; w < readers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for p := 0; p < pins; p++ {
				s := st.Pin()
				epoch, tag := s.Epoch(), s.CacheTag()
				total := 0
				for i := 0; i < s.NumShards(); i++ {
					sh := s.Shard(i)
					total += sh.NumGraphs()
					for _, id := range sh.GraphIDs() {
						if s.Graph(id) == nil {
							errc <- fmt.Errorf("reader %d: shard %d lists id %d but slot is nil at epoch %d", w, i, id, epoch)
							return
						}
						if s.ShardOf(id) != i {
							errc <- fmt.Errorf("reader %d: id %d misplaced in shard %d", w, id, i)
							return
						}
					}
					// Touch the index lists: sealed sets must never race.
					set := sh.Index()
					for e := 0; e < set.A2F.NumEntries(); e++ {
						_ = set.A2F.FSGIds(e)
					}
				}
				if total != len(s.LiveIDs()) {
					errc <- fmt.Errorf("reader %d: shards own %d graphs, universe has %d (epoch %d)", w, total, len(s.LiveIDs()), epoch)
					return
				}
				if s.Epoch() != epoch || s.CacheTag() != tag {
					errc <- fmt.Errorf("reader %d: pinned snapshot changed identity mid-action", w)
					return
				}
			}
		}(w)
	}
	wg.Add(1)
	go func() {
		defer wg.Done()
		r := rand.New(rand.NewSource(77))
		for i := 0; i < writes; i++ {
			if live := st.LiveIDs(); r.Intn(2) == 0 && len(live) > 5 {
				_ = st.DeleteGraph(live[r.Intn(len(live))])
			} else {
				_, _ = st.InsertGraph(extraGraph(int64(1000 + i)))
			}
		}
	}()
	wg.Wait()
	close(errc)
	for err := range errc {
		t.Error(err)
	}
	checkIncrementalAgainstRebuild(t, st)
}

// TestFilterTableBuiltOnce: readers racing on one fresh snapshot's
// FilterTable while a mutator publishes successors see exactly one build and
// one table; the successors' tables match a rebuild.
func TestFilterTableBuiltOnce(t *testing.T) {
	db := testDB(t, 27, 20)
	st, err := NewSharded(db, buildIndex(t, db, 0.25, 2), 3)
	if err != nil {
		t.Fatal(err)
	}
	s := st.Pin()
	const readers = 8
	tabs := make([]*prefilter.Table, readers)
	builds := make([]bool, readers)
	start := make(chan struct{})
	var wg sync.WaitGroup
	for i := 0; i < readers; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			<-start
			tabs[i], builds[i] = s.FilterTable()
		}()
	}
	wg.Add(1)
	go func() {
		defer wg.Done()
		<-start
		for k := 0; k < 10; k++ {
			id, err := st.InsertGraph(oovGraph(int64(k)))
			if err == nil {
				err = st.DeleteGraph(id - 1)
			}
			if err != nil {
				t.Error(err)
				return
			}
		}
	}()
	close(start)
	wg.Wait()
	n := 0
	for i := range tabs {
		if builds[i] {
			n++
		}
		if tabs[i] == nil || tabs[i] != tabs[0] {
			t.Fatalf("reader %d saw table %p, reader 0 %p", i, tabs[i], tabs[0])
		}
	}
	if n != 1 {
		t.Fatalf("%d builds of one snapshot's table, want 1", n)
	}
	if tab, built := s.FilterTable(); built || tab != tabs[0] {
		t.Fatal("a later call rebuilt the table")
	}
	checkIncrementalAgainstRebuild(t, st)
}

// TestFilterTableLazy: no table exists until someone asks — a mutation on a
// store nobody asked leaves its successor lazy too — and once one exists, the
// next mutation publishes its successor with a derived table.
func TestFilterTableLazy(t *testing.T) {
	db := testDB(t, 28, 20)
	st, err := NewMem(db, buildIndex(t, db, 0.25, 2))
	if err != nil {
		t.Fatal(err)
	}
	if _, err := st.InsertGraph(oovGraph(1)); err != nil {
		t.Fatal(err)
	}
	if st.Pin().(*snap).filter.Peek() != nil {
		t.Fatal("a mutation built a table nobody asked for")
	}
	if _, built := st.FilterTable(); !built {
		t.Fatal("the first FilterTable call did not build")
	}
	if err := st.DeleteGraph(20); err != nil {
		t.Fatal(err)
	}
	if st.Pin().(*snap).filter.Peek() == nil {
		t.Fatal("the delete published its snapshot without a derived table")
	}
	checkIncrementalAgainstRebuild(t, st)
}
