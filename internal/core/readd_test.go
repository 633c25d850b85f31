package core_test

import (
	"fmt"
	"reflect"
	"testing"

	"prague/internal/core"
	"prague/internal/dataset"
	"prague/internal/index"
	"prague/internal/mining"
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
// queries at σ = 2 and one query at σ = |q|, on a monolithic and a 4-shard
// store. A per-level set that survived a refresh it should not have (a
// reused bitset not cleared) breaks it.
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

	mem, err := store.NewMem(db, idx)
	if err != nil {
		t.Fatal(err)
	}
	sharded, err := store.NewSharded(db, idx, 4)
	if err != nil {
		t.Fatal(err)
	}
	for _, st := range []store.Store{mem, sharded} {
		for _, c := range cases {
			t.Run(fmt.Sprintf("%d-shards/%s/sigma-%d", st.NumShards(), c.q.Name, c.sigma), func(t *testing.T) {
				checkReadd(t, st, c.q, c.sigma)
			})
		}
	}
}

func checkReadd(t *testing.T, st store.Store, q workload.Query, sigma int) {
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
