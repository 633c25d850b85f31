package core

import (
	"context"
	"maps"
	"slices"
	"testing"

	"prague/internal/graph"
	"prague/internal/index"
	"prague/internal/mining"
	"prague/internal/naivescan"
	"prague/internal/store"
)

// proberStore presents an in-process store as a remote layout: its
// snapshots evaluate the riders of a batch too, as a layout that sends a
// request anyway does, and calls counts the batches.
type proberStore struct {
	store.Store
	calls *int
}

func (s proberStore) Pin() store.Snapshot { return proberSnap{s.Store.Pin(), s.calls} }

type proberSnap struct {
	store.Snapshot
	calls *int
}

func (p proberSnap) ProbeAll(ctx context.Context, probes []store.Probe, _ int, out [][]int) ([][]int, error) {
	*p.calls++
	return p.Snapshot.ProbeAll(ctx, probes, 0, out)
}

// maskFlipFixture is a ten-graph database at α = 0.3 (minSup 3) whose edge
// C-N has support exactly 3 (graphs 0, 1 and 2), so deleting graph 0 masks
// its A²F entry: C-N classifies as NIF from then on. No other graph has an N.
func maskFlipFixture(t *testing.T) *fixture {
	t.Helper()
	path := func(id int, labels ...string) *graph.Graph {
		g := graph.New(id)
		for _, l := range labels {
			g.AddNode(l)
		}
		for v := 1; v < len(labels); v++ {
			g.MustAddEdge(v-1, v)
		}
		return g
	}
	db := []*graph.Graph{path(0, "N", "C", "C"), path(1, "N", "C", "N"), path(2, "N", "C", "C")}
	for id := 3; id < 10; id++ {
		if id%2 == 0 {
			db = append(db, path(id, "C", "C", "C"))
		} else {
			db = append(db, path(id, "C", "O", "C"))
		}
	}
	res, err := mining.Mine(db, mining.Options{MinSupportRatio: 0.3, MaxSize: 4, IncludeZeroSupportPairs: true})
	if err != nil {
		t.Fatal(err)
	}
	idx, err := index.Build(res, 0.3, 3)
	if err != nil {
		t.Fatal(err)
	}
	return &fixture{db: db, idx: idx}
}

// TestClassKeySoundAcrossMaskFlip: the candidate memo keys a fragment class
// by indexedness as well as code. Edge e1 (N-C) is drawn while C-N is frequent,
// then a deletion masks C-N and e2 (C-N) is drawn, so the session holds a
// frequent and a NIF vertex of one code. SuggestDeletion resolves the NIF
// one first (q - e1), whose list is every live graph. The similarity window
// then reads the frequent one as level 1's representative: its Rfree must
// hold only graphs that contain C-N, never an id of the NIF superset, and
// Run must answer what a naive scan answers — on a monolithic, a 2-shard
// and a batching (remote-like) layout.
func TestClassKeySoundAcrossMaskFlip(t *testing.T) {
	fx := maskFlipFixture(t)
	for _, layout := range []string{"mono", "shard2", "prober"} {
		t.Run(layout, func(t *testing.T) {
			var (
				st    store.Store
				err   error
				calls int
			)
			if layout == "mono" {
				st, err = store.NewSharded(fx.db, fx.idx, 1)
			} else {
				st, err = store.NewSharded(fx.db, fx.idx, 2)
			}
			if err != nil {
				t.Fatal(err)
			}
			if layout == "prober" {
				st = proberStore{Store: st, calls: &calls}
			}
			e, err := NewWithStore(st, 1)
			if err != nil {
				t.Fatal(err)
			}
			n := []int{e.AddNode("N"), e.AddNode("C"), e.AddNode("N")}
			if _, err := e.AddEdge(n[0], n[1]); err != nil {
				t.Fatal(err)
			}
			if err := st.DeleteGraph(0); err != nil {
				t.Fatal(err)
			}
			if _, err := e.AddEdge(n[1], n[2]); err != nil {
				t.Fatal(err)
			}
			freq, nif := e.Spigs().Spig(1).Source(), e.Spigs().Spig(2).Source()
			if freq.Code != nif.Code || freq.Kind != index.KindFrequent || nif.Kind != index.KindNone {
				t.Fatalf("fixture: want a frequent and a NIF vertex of one code, got %v %q and %v %q",
					freq.Kind, freq.Code, nif.Kind, nif.Code)
			}
			if _, err := e.SuggestDeletion(); err != nil {
				t.Fatal(err)
			}
			if _, ok := e.candMemo.get(nif); !ok {
				t.Fatal("fixture: SuggestDeletion should have resolved the NIF vertex")
			}
			if _, err := e.ChooseSimilarityCtx(context.Background()); err != nil {
				t.Fatal(err)
			}
			checkRfreeContained(t, e)
			got, err := e.Run()
			if err != nil {
				t.Fatal(err)
			}
			qg, _ := e.Query().Graph()
			ns, err := naivescan.NewFromStore(st, 1)
			if err != nil {
				t.Fatal(err)
			}
			want, _ := ns.Similarity(qg, e.Sigma())
			gotD, wantD := map[int]int{}, map[int]int{}
			for _, r := range got {
				gotD[r.GraphID] = r.Distance
			}
			for _, r := range want {
				wantD[r.GraphID] = r.Distance
			}
			if !maps.Equal(gotD, wantD) {
				t.Errorf("Run = %v, naive scan %v", gotD, wantD)
			}
		})
	}
}

// checkRfreeContained asserts the soundness of every similarity level's
// Rfree: each id in it contains the fragment of some indexed vertex of the
// level, so its distance bound holds without verification.
func checkRfreeContained(t *testing.T, e *Engine) {
	t.Helper()
	free, _ := SimilaritySets(e)
	for j, ids := range free {
		level := e.Query().Size() - 1 - j
		var frags []*graph.Graph
		for _, s := range e.Spigs().Labels() {
			for _, v := range e.Spigs().Spig(s).Level(level) {
				if v.Kind.Indexed() {
					frags = append(frags, v.Frag)
				}
			}
		}
		for _, id := range ids {
			g := e.Snapshot().Graph(id)
			if !slices.ContainsFunc(frags, func(f *graph.Graph) bool { return graph.SubgraphIsomorphic(f, g) }) {
				t.Errorf("level %d: Rfree holds graph %d, which contains none of the level's indexed fragments", level, id)
			}
		}
	}
}

// TestSimilarityDeletionReadsTheRiders: on a batching layout, a similarity
// step's batch carries the level below the window, so a single-edge
// deletion makes no probe call and leaves the candidate state a
// memo-cleared refresh computes. In process no rider is resolved, so the
// level keeps classes the step never probed.
func TestSimilarityDeletionReadsTheRiders(t *testing.T) {
	fx := makeFixture(t, 7, 40, 0.3)
	for _, batching := range []bool{false, true} {
		mem, err := store.NewSharded(fx.db, fx.idx, 1)
		if err != nil {
			t.Fatal(err)
		}
		var (
			st    store.Store = mem
			calls int
		)
		if batching {
			st = proberStore{Store: mem, calls: &calls}
		}
		e, err := NewWithStore(st, 1)
		if err != nil {
			t.Fatal(err)
		}
		n := []int{e.AddNode("C"), e.AddNode("C"), e.AddNode("N"), e.AddNode("C"), e.AddNode("O")}
		e.ChooseSimilarity()
		for k := 1; k < len(n); k++ {
			if _, err := e.AddEdge(n[k-1], n[k]); err != nil {
				t.Fatal(err)
			}
		}
		// σ = 1 on four edges: the window is level 3, the riders level 2,
		// where SPIG 4's vertices are new (SPIG 3's were the last window).
		level := e.Spigs().LevelVertices(2)
		resolved := 0
		for _, v := range level {
			if _, ok := e.candMemo.get(v); ok {
				resolved++
			}
		}
		if all := resolved == len(level); all != batching {
			t.Errorf("batching %v: %d of %d level-2 classes resolved after the step", batching, resolved, len(level))
		}
		before := calls
		out, err := e.DeleteEdge(1)
		if err != nil {
			t.Fatal(err)
		}
		if calls != before {
			t.Errorf("batching %v: the deletion made %d probe calls, want 0", batching, calls-before)
		}
		kept := candStateOf(e, out)
		fresh, err := RefreshWithoutMemo(e)
		if err != nil {
			t.Fatal(err)
		}
		if want := candStateOf(e, fresh); !kept.equal(want) {
			t.Errorf("batching %v: kept memo gives %+v, memo-cleared refresh %+v", batching, kept, want)
		}
	}
}
