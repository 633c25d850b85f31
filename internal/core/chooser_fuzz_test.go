package core

import (
	"context"
	"math/rand"
	"sync"
	"testing"

	"prague/internal/graph"
	"prague/internal/index"
	"prague/internal/mining"
	"prague/internal/rpcstore"
	"prague/internal/store"
	"prague/internal/trace"
)

// chooserFuzzFix lazily builds one shared database + index fixture for the
// prefilter fuzz target: mining is far too slow to repeat per fuzz
// execution, and the prefilter's behavior space is covered by varying the
// query, not the database.
var chooserFuzzFix struct {
	once sync.Once
	fx   *fixture
	err  error
}

func chooserFixture(t *testing.T) *fixture {
	chooserFuzzFix.once.Do(func() {
		r := rand.New(rand.NewSource(97))
		labels := []string{"C", "C", "C", "C", "N", "O", "S"}
		var db []*graph.Graph
		for i := 0; i < 30; i++ {
			nodes := 4 + r.Intn(6)
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
		res, err := mining.Mine(db, mining.Options{MinSupportRatio: 0.25, MaxSize: 8, IncludeZeroSupportPairs: true})
		if err != nil {
			chooserFuzzFix.err = err
			return
		}
		idx, err := index.Build(res, 0.25, 3)
		if err != nil {
			chooserFuzzFix.err = err
			return
		}
		chooserFuzzFix.fx = &fixture{db: db, idx: idx}
	})
	if chooserFuzzFix.err != nil {
		t.Fatal(chooserFuzzFix.err)
	}
	return chooserFuzzFix.fx
}

// FuzzFilterChooser pins the verify prefilter's soundness claim: whatever
// the prefilter decides for a query's exact and similarity lists, the Run's
// answers match the brute-force oracle. A count filter that ever dropped a
// true candidate would surface here as an answer the oracle has and the
// engine lacks.
func FuzzFilterChooser(f *testing.F) {
	for s := int64(0); s < 16; s++ {
		f.Add(s, uint8(s))
	}
	f.Fuzz(func(t *testing.T, seed int64, shape uint8) {
		fx := chooserFixture(t)
		r := rand.New(rand.NewSource(seed))
		labels := []string{"C", "C", "N", "O", "S", "Hg"}
		bonds := []string{"", "", "1", "2"}

		// Draw a random connected query.
		nn := 2 + int(shape)%4 + r.Intn(2)
		nodeLabels := make([]string, nn)
		for i := range nodeLabels {
			nodeLabels[i] = labels[r.Intn(len(labels))]
		}
		type edgePlan struct {
			u, v int
			bond string
		}
		var edges []edgePlan
		for v := 1; v < nn; v++ {
			edges = append(edges, edgePlan{v, r.Intn(v), bonds[r.Intn(len(bonds))]})
		}
		for k := 0; k < r.Intn(3); k++ {
			u, v := r.Intn(nn), r.Intn(nn)
			if u != v {
				edges = append(edges, edgePlan{u, v, bonds[r.Intn(len(bonds))]})
			}
		}

		e, err := New(fx.db, fx.idx, 2)
		if err != nil {
			t.Fatal(err)
		}
		nodes := make([]int, nn)
		for i, l := range nodeLabels {
			nodes[i] = e.AddNode(l)
		}
		for _, ep := range edges {
			out, err := e.AddLabeledEdge(nodes[ep.u], nodes[ep.v], ep.bond)
			if err != nil {
				continue // duplicate/self-loop: skipped
			}
			if out.NeedsChoice {
				e.ChooseSimilarity()
			}
		}
		if e.AwaitingChoice() {
			e.ChooseSimilarity()
		}
		results, err := e.Run()
		if err != nil {
			t.Fatalf("run: %v", err)
		}
		_ = e.FilterExplain() // must never panic, decided or not
		got := map[int]int{}
		for _, res := range results {
			got[res.GraphID] = res.Distance
		}
		qg, _ := e.Query().Graph()
		live := make([]int, len(fx.db))
		for i := range live {
			live[i] = i
		}
		checkOracle(t, got, e.SimilarityMode(), qg, live, func(id int) *graph.Graph { return fx.db[id] })
	})
}

// checkOracle compares a Run's answers (graph id -> distance) with brute
// force over the live graphs: the exact containment set when the engine
// stayed in containment mode and some graph contains qg, and otherwise every
// graph within σ = 2 at its subgraph distance.
func checkOracle(t *testing.T, got map[int]int, simMode bool, qg *graph.Graph, live []int, graphOf func(int) *graph.Graph) {
	t.Helper()
	if !simMode {
		exact := map[int]bool{}
		for _, id := range live {
			if graph.SubgraphIsomorphic(qg, graphOf(id)) {
				exact[id] = true
			}
		}
		if len(exact) > 0 {
			if len(got) != len(exact) {
				t.Fatalf("%d exact results, oracle %d", len(got), len(exact))
			}
			for id := range got {
				if !exact[id] {
					t.Fatalf("false positive %d", id)
				}
			}
			return
		}
	}
	for _, id := range live {
		d := graph.SubgraphDistance(qg, graphOf(id))
		if d <= 2 {
			if gd, ok := got[id]; !ok || gd != d {
				t.Fatalf("graph %d dist %d, engine says %v (ok=%v)", id, d, gd, ok)
			}
		} else if _, ok := got[id]; ok {
			t.Fatalf("graph %d beyond σ included", id)
		}
	}
}

// chooserTopology opens the chooser fixture as one of the layouts the
// epoch-advance tests run on: monolithic, four in-process shards, or four
// shards split over two loopback shard servers.
func chooserTopology(t *testing.T, name string, fx *fixture) store.Store {
	t.Helper()
	switch name {
	case "mem":
		st, err := store.NewSharded(fx.db, fx.idx, 1)
		if err != nil {
			t.Fatal(err)
		}
		return st
	case "sharded4":
		st, err := store.NewSharded(fx.db, fx.idx, 4)
		if err != nil {
			t.Fatal(err)
		}
		return st
	}
	var addrs []string
	for _, shards := range [][]int{{0, 1}, {2, 3}} {
		st, err := store.NewSharded(fx.db, fx.idx, 4)
		if err != nil {
			t.Fatal(err)
		}
		srv := rpcstore.NewServer(st, rpcstore.WithServeShards(shards...))
		if err := srv.Listen("127.0.0.1:0"); err != nil {
			t.Fatal(err)
		}
		t.Cleanup(func() { srv.Close() })
		addrs = append(addrs, srv.Addr().String())
	}
	rs, err := rpcstore.Dial(context.Background(), addrs)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { rs.Close() })
	return rs
}

var chooserTopologies = []string{"mem", "sharded4", "remote2"}

// mercuryGraph is a data graph with a label no fixture graph has (Hg) on
// carbon, so the query C-Hg goes from no match to one.
func mercuryGraph() *graph.Graph {
	g := graph.New(-1)
	for _, l := range []string{"C", "C", "Hg", "N", "O"} {
		g.AddNode(l)
	}
	for _, e := range [][2]int{{0, 1}, {1, 2}, {2, 3}, {1, 4}} {
		g.MustAddEdge(e[0], e[1])
	}
	return g
}

// chooserQuery is a canvas script: node labels, then edges in drawing order.
type chooserQuery struct {
	labels []string
	edges  [][2]int
}

// formulate draws q on e, leaving any Modify/SimQuery choice open: Run then
// decides at its own epoch.
func (q chooserQuery) formulate(t *testing.T, e *Engine) {
	t.Helper()
	nodes := make([]int, len(q.labels))
	for i, l := range q.labels {
		nodes[i] = e.AddNode(l)
	}
	for _, ed := range q.edges {
		if _, err := e.AddEdge(nodes[ed[0]], nodes[ed[1]]); err != nil {
			t.Fatal(err)
		}
	}
}

// TestChooserParityAcrossEpochAdvance: a session formulates a query, the
// store then inserts a graph carrying a label no graph had (Hg) and deletes
// another, and the session Runs. It must answer like the brute-force oracle
// at the pinned epoch, and explain its last prefilter decision exactly like a
// fresh engine over a fresh store that never saw the old epoch — the table
// the mutation derived must decide like one built from scratch.
func TestChooserParityAcrossEpochAdvance(t *testing.T) {
	fx := chooserFixture(t)
	// Hg on carbon (a rare label after the insert), Hg between two carbons
	// (repeated C, no exact match), P (no graph has it), a heteroatom comb,
	// and two ordinary shapes.
	queries := []chooserQuery{
		{[]string{"C", "Hg"}, [][2]int{{0, 1}}},
		{[]string{"C", "Hg", "C"}, [][2]int{{0, 1}, {1, 2}}},
		{[]string{"C", "P"}, [][2]int{{0, 1}}},
		{[]string{"C", "C", "C", "N", "N", "N"}, [][2]int{{0, 1}, {1, 2}, {0, 3}, {1, 4}, {2, 5}}},
		{[]string{"C", "C", "O", "Hg"}, [][2]int{{0, 1}, {1, 2}, {1, 3}}},
		{[]string{"S", "C", "N"}, [][2]int{{0, 1}, {1, 2}}},
	}
	const victim = 3
	advance := func(st store.Store) {
		t.Helper()
		if _, err := st.InsertGraph(mercuryGraph()); err != nil {
			t.Fatal(err)
		}
		if err := st.DeleteGraph(victim); err != nil {
			t.Fatal(err)
		}
	}
	for _, topo := range chooserTopologies {
		for qi, q := range queries {
			st := chooserTopology(t, topo, fx)
			e, err := NewWithStore(st, 2)
			if err != nil {
				t.Fatal(err)
			}
			q.formulate(t, e)
			st.FilterTable() // the old epoch's table exists, so the next is derived
			advance(st)
			if _, built := st.FilterTable(); built {
				t.Fatalf("%s: the epoch advance left the new snapshot without a table", topo)
			}
			results, err := e.Run()
			if err != nil {
				t.Fatalf("%s q%d: run: %v", topo, qi, err)
			}
			if e.Snapshot().Epoch() != st.Epoch() {
				t.Fatalf("%s q%d: ran at epoch %d, store at %d", topo, qi, e.Snapshot().Epoch(), st.Epoch())
			}
			got := map[int]int{}
			for _, r := range results {
				got[r.GraphID] = r.Distance
			}
			qg, _ := e.Query().Graph()
			snap := e.Snapshot()
			checkOracle(t, got, e.SimilarityMode(), qg, snap.LiveIDs(), snap.Graph)

			fresh, err := store.NewSharded(fx.db, fx.idx, 1)
			if err != nil {
				t.Fatal(err)
			}
			advance(fresh)
			ref, err := NewWithStore(fresh, 2)
			if err != nil {
				t.Fatal(err)
			}
			q.formulate(t, ref)
			if _, err := ref.Run(); err != nil {
				t.Fatal(err)
			}
			if g, w := e.FilterExplain(), ref.FilterExplain(); g != w {
				t.Errorf("%s q%d: %q, fresh store %q", topo, qi, g, w)
			}
		}
	}
}

// TestNoTableRebuildAfterMutations: the Run that first needs the filter
// table records one table_build on its filter_choose span. After ten
// insert+delete pairs the next Run records none, because every mutation
// derived its snapshot's table from its parent's. The query, Hg between two
// carbons, repeats a feature and meets at least minPrefilterCands candidates
// at both epochs, so both Runs count-filter and need the table.
func TestNoTableRebuildAfterMutations(t *testing.T) {
	fx := chooserFixture(t)
	tr := trace.New(trace.Options{Enabled: true})
	builds := func(e *Engine) (n, counted int64) {
		t.Helper()
		ctx, root := tr.StartRoot(context.Background(), trace.KindRun)
		_, err := e.RunCtx(ctx)
		root.End()
		if err != nil {
			t.Fatal(err)
		}
		root.Data().Walk(func(s *trace.SpanData) {
			if s.Kind == trace.KindFilterChoose.String() {
				n += s.Counts["table_build"]
				if _, ok := s.Counts[ArmGrafil.String()]; ok {
					counted++
				}
			}
		})
		return n, counted
	}
	for _, topo := range []string{"mem", "remote2"} {
		st := chooserTopology(t, topo, fx)
		e, err := NewWithStore(st, 2)
		if err != nil {
			t.Fatal(err)
		}
		chooserQuery{[]string{"C", "Hg", "C"}, [][2]int{{0, 1}, {1, 2}}}.formulate(t, e)
		if n, c := builds(e); n != 1 || c == 0 {
			t.Fatalf("%s: first Run recorded %d table builds in %d count-filter decisions, want 1", topo, n, c)
		}
		for k := 0; k < 10; k++ {
			if _, err := st.InsertGraph(mercuryGraph()); err != nil {
				t.Fatal(err)
			}
			if err := st.DeleteGraph(k); err != nil {
				t.Fatal(err)
			}
		}
		if n, c := builds(e); n != 0 || c == 0 {
			t.Fatalf("%s: Run after 10 insert+delete pairs recorded %d table builds in %d count-filter decisions, want 0", topo, n, c)
		}
	}
}
