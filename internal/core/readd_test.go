package core_test

import (
	"context"
	"fmt"
	"reflect"
	"testing"

	"prague/internal/core"
	"prague/internal/dataset"
	"prague/internal/graph"
	"prague/internal/index"
	"prague/internal/mining"
	"prague/internal/rpcstore"
	"prague/internal/store"
	"prague/internal/workload"
)

// engineState is everything a session can observe of one query revision.
type engineState struct {
	Free, Ver           [][]int
	Outcome             core.StepOutcome
	Rq                  []int
	CFree, CVer, CTotal int
	Results             []core.Result
	RunErr              string
	Similarity, Choice  bool
}

// TestDeleteThenReaddRestoresCandidates is the delete-then-re-add property:
// deleting the edge just drawn and drawing it again gives back the state the
// engine had before the deletion — the per-level Rfree/Rver sets, the
// outcome's counts, CandidateCounts and the Run answer. Each session runs
// twice in lockstep, once as drawn and once with every edge deleted and
// re-added right after it is drawn, over the workload package's similarity
// queries at σ = 2 and one query at σ = |q|, on a monolithic, a 4-shard and
// a remote store (two loopback shard servers over independent 4-shard
// replicas). The "-epoch" variants advance the store's epoch between the
// deletion and the re-add, by inserting a graph and deleting it again: the
// live graphs are the same, so the state must be too, although the re-add
// repins and recomputes from an empty memo. A per-level set that survived a
// refresh it should not have (a reused bitset not cleared) breaks it.
func TestDeleteThenReaddRestoresCandidates(t *testing.T) {
	db, err := dataset.Molecules(dataset.MoleculeOptions{NumGraphs: 150, Seed: 42, MeanNodes: 12, MaxNodes: 40})
	if err != nil {
		t.Fatal(err)
	}
	res, err := mining.Mine(db, mining.Options{MinSupportRatio: 0.1, MaxSize: 6, IncludeZeroSupportPairs: true})
	if err != nil {
		t.Fatal(err)
	}
	idx, err := index.Build(res, 0.1, 3)
	if err != nil {
		t.Fatal(err)
	}
	best, worst, err := workload.FindSimilarityQueries(db, idx, 2, 2, workload.Options{
		Seed: 11, Sigma: 2, MinEdges: 4, MaxEdges: 6, Attempts: 100,
	})
	if err != nil {
		t.Fatal(err)
	}
	type tcase struct {
		q     workload.Query
		sigma int
	}
	var cases []tcase
	for _, q := range append(best, worst...) {
		cases = append(cases, tcase{q, 2})
	}
	cases = append(cases, tcase{best[0], best[0].Size()})

	mem, err := store.NewSharded(db, idx, 1)
	if err != nil {
		t.Fatal(err)
	}
	sharded, err := store.NewSharded(db, idx, 4)
	if err != nil {
		t.Fatal(err)
	}
	remote := bootRemote(t, db, idx)
	for _, layout := range []struct {
		name string
		st   store.Store
	}{{"1-shards", mem}, {"4-shards", sharded}, {"remote", remote}} {
		for _, advance := range []bool{false, true} {
			name := layout.name
			if advance {
				name += "-epoch"
			}
			for _, c := range cases {
				t.Run(fmt.Sprintf("%s/%s/sigma-%d", name, c.q.Name, c.sigma), func(t *testing.T) {
					var between func()
					if advance {
						between = func() { advanceEpoch(t, layout.st, db[0]) }
					}
					checkReadd(t, layout.st, c.q, c.sigma, between)
				})
			}
		}
	}
}

// bootRemote serves two independent 4-shard replicas of the database over
// loopback, the first answering shards 0 and 1 and the second 2 and 3, and
// dials a coordinator over them. Everything is closed when the test ends.
func bootRemote(t *testing.T, db []*graph.Graph, idx *index.Set) store.Store {
	t.Helper()
	serve := [2][]int{{0, 1}, {2, 3}}
	var addrs []string
	for _, shards := range serve {
		rep, err := store.NewSharded(db, idx, 4)
		if err != nil {
			t.Fatal(err)
		}
		srv := rpcstore.NewServer(rep, rpcstore.WithServeShards(shards...))
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

// advanceEpoch inserts a copy of g into the store and deletes it again: two
// epochs later the live graphs are those before.
func advanceEpoch(t *testing.T, st store.Store, g *graph.Graph) {
	t.Helper()
	before := st.Epoch()
	id, err := st.InsertGraph(g.Clone())
	if err != nil {
		t.Fatal(err)
	}
	if err := st.DeleteGraph(id); err != nil {
		t.Fatal(err)
	}
	if st.Epoch() != before+2 {
		t.Fatalf("epoch %d after an insert and a delete from %d", st.Epoch(), before)
	}
}

// checkReadd runs q twice in lockstep, as drawn and with every edge deleted
// and re-added right after it is drawn, and compares the two states after
// each edge; between, if not nil, runs between the deletion and the re-add.
func checkReadd(t *testing.T, st store.Store, q workload.Query, sigma int, between func()) {
	var asDrawn, readded *core.Engine
	for _, e := range []**core.Engine{&asDrawn, &readded} {
		var err error
		if *e, err = core.NewWithStore(st, sigma); err != nil {
			t.Fatal(err)
		}
	}
	var nodes []int
	for _, l := range q.NodeLabels {
		nodes = append(nodes, asDrawn.AddNode(l))
		readded.AddNode(l)
	}
	// draw adds one edge, resolving an emptied Rq with SimQuery as the
	// benchmark's sessions do; the outcome is the last one the session saw.
	draw := func(e *core.Engine, ed [2]int) (int, core.StepOutcome) {
		out, err := e.AddEdge(nodes[ed[0]], nodes[ed[1]])
		if err != nil {
			t.Fatal(err)
		}
		step := out.Step
		if out.NeedsChoice {
			out = e.ChooseSimilarity()
		}
		return step, out
	}
	for k, ed := range q.Edges {
		_, want := draw(asDrawn, ed)
		step, _ := draw(readded, ed)
		if out, err := readded.DeleteEdge(step); err != nil || out.NeedsChoice {
			t.Fatalf("edge %d: deleting it: %+v, %v", k+1, out, err)
		}
		if between != nil {
			between()
		}
		_, got := draw(readded, ed)
		if ws, gs := stateOf(asDrawn, want), stateOf(readded, got); !reflect.DeepEqual(ws, gs) {
			t.Fatalf("edge %d: after delete-then-re-add\n%+v\nas drawn\n%+v", k+1, gs, ws)
		}
	}
}

// stateOf reads an engine's observable state, running the query last.
func stateOf(e *core.Engine, out core.StepOutcome) engineState {
	out.Step, out.SpigTime, out.EvalTime = 0, 0, 0
	s := engineState{Outcome: out, Rq: e.Rq(), Similarity: e.SimilarityMode(), Choice: e.AwaitingChoice()}
	s.Free, s.Ver = core.SimilaritySets(e)
	s.CFree, s.CVer, s.CTotal = e.CandidateCounts()
	var err error
	if s.Results, err = e.Run(); err != nil {
		s.RunErr = err.Error()
	}
	return s
}
