package main

import (
	"encoding/json"
	"fmt"
	"slices"
	"strings"
	"testing"
	"time"

	"prague/internal/dataset"
	"prague/internal/graph"
	"prague/internal/index"
	"prague/internal/mining"
	"prague/internal/workload"
)

// testSpec is a workload small enough for tier-1: 60 molecules, a pool of two
// queries found on the spot, 6 sessions a round.
func testSpec(l layout) *spec {
	return &spec{
		name: "test", data: dataset.MoleculeOptions{NumGraphs: 60, Seed: 3, MeanNodes: 14}, layout: l,
		mutateEvery: 3, sessionsPerRound: 6, readEvery: 3, rounds: minRounds,
		pool: func(db []*graph.Graph) ([]workload.Query, error) {
			mined, err := mining.Mine(db, mining.Options{MinSupportRatio: alpha, MaxSize: maxFrag, IncludeZeroSupportPairs: true})
			if err != nil {
				return nil, err
			}
			idx, err := index.Build(mined, alpha, beta)
			if err != nil {
				return nil, err
			}
			_, worst, err := workload.FindSimilarityQueries(db, idx, 0, 1, workload.Options{Seed: 7, RareLabels: []string{"Hg"}, MinEdges: 4, MaxEdges: 4, Attempts: 40})
			if err != nil {
				return nil, err
			}
			cq, err := workload.ContainmentQueries(db, 1, []int{3}, 7)
			if err != nil {
				return nil, err
			}
			return []workload.Query{worst[0], cq[0]}, nil
		},
	}
}

// The op schedule is a pure function of the seed, is not changed by replaying
// it, and differs between seeds.
func TestScheduleIsAFunctionOfTheSeed(t *testing.T) {
	sp := testSpec(layoutMono)
	db, err := dataset.Molecules(sp.data)
	if err != nil {
		t.Fatal(err)
	}
	pool, err := sp.pool(db)
	if err != nil {
		t.Fatal(err)
	}
	a, err := newSchedule(sp, pool, defaultSeed)
	if err != nil {
		t.Fatal(err)
	}
	b, _ := newSchedule(sp, pool, defaultSeed)
	other, _ := newSchedule(sp, pool, reservedSeed)
	if a.digest != b.digest {
		t.Errorf("same seed, digests %s and %s", a.digest, b.digest)
	}
	if a.digest == other.digest {
		t.Errorf("seeds %d and %d share the digest %s", defaultSeed, reservedSeed, a.digest)
	}
	if len(a.ops) != sp.sessionsPerRound || len(a.block) != mutationBlock {
		t.Errorf("round of %d sessions and %d closing pairs, want %d and %d", len(a.ops), len(a.block), sp.sessionsPerRound, mutationBlock)
	}
	mutated := 0
	for i, o := range a.ops {
		if (o.mutate >= 0) != (i%sp.mutateEvery == sp.mutateEvery-1) {
			t.Errorf("session %d: mutate=%d", i, o.mutate)
		}
		if o.mutate >= 0 {
			mutated++
		}
	}
	if mutated != sp.sessionsPerRound/sp.mutateEvery {
		t.Errorf("%d sessions follow a mutation, want %d", mutated, sp.sessionsPerRound/sp.mutateEvery)
	}

	top, err := setup(sp, db, false, nil)
	if err != nil {
		t.Fatal(err)
	}
	defer top.close()
	c := newClient(top.svc, a, newSpeedometer(sp.speedWeights()))
	if _, err := warmUp(c, top.st); err != nil {
		t.Fatal(err)
	}
	first, second := c.round(), c.round()
	if c.failed > 0 {
		t.Fatalf("%d of %d operations failed: %v", c.failed, c.attempted, c.firstErr)
	}
	if first[mSrtP50] <= 0 || second[mSrtP50] <= 0 {
		t.Errorf("rounds without SRT samples: %v, %v", first, second)
	}
	if again, _ := a.hash(pool); again != a.digest {
		t.Errorf("digest %s after two rounds, %s before", again, a.digest)
	}
}

// Two in-process runs of the same seed agree exactly on every count the
// layers report, on the topology with the most moving parts, and the schedule
// keeps the SRT quantiles off the class boundary for two seeds.
func TestCountsRepeatAndModesHold(t *testing.T) {
	layerBatch = 20 * time.Microsecond
	counts := []string{"spig.vertices_per_edge", "core.rver_per_run", "rpcstore.rpcs_per_edge", "store.epoch_final"}
	var runs [2]map[string]metric
	for i := range runs {
		rep, out, err := runWorkload(testSpec(layoutRemote), defaultSeed, defaultSeconds, true, "")
		if err != nil {
			t.Fatal(err)
		}
		if !out.Correct {
			t.Fatalf("run %d: %d of %d operations failed: %s", i, out.Failed, out.Attempted, rep.FirstError)
		}
		runs[i] = out.Metrics
	}
	for _, name := range counts {
		a, ok := runs[0][name]
		if b := runs[1][name]; !ok || a != b {
			t.Errorf("%s: %v then %v", name, a, b)
		}
	}
	if runs[0]["rpcstore.rpcs_per_edge"].Value == 0 {
		t.Error("no shard RPC counted on the remote layout")
	}

	rep, out, err := runWorkload(testSpec(layoutMono), reservedSeed, defaultSeconds, false, "")
	if err != nil {
		t.Fatal(err)
	}
	if !out.Correct {
		t.Fatalf("seed %d: %d of %d operations failed: %s", reservedSeed, out.Failed, out.Attempted, rep.FirstError)
	}
}

func TestCheckModes(t *testing.T) {
	for _, tc := range []struct {
		containment int // of 100 sessions
		ok          bool
	}{{0, true}, {26, true}, {39, true}, {45, false}, {55, false}, {65, true}, {90, false}, {100, true}} {
		s := &schedule{variants: []*variant{{similarity: false}, {similarity: true}}}
		for i := 0; i < 100; i++ {
			v := 1
			if i < tc.containment {
				v = 0
			}
			s.ops = append(s.ops, op{variant: v})
		}
		if err := s.checkModes(); (err == nil) != tc.ok {
			t.Errorf("containment share %d%%: %v", tc.containment, err)
		}
	}
}

// findMonoPool is the search queries.json came from: 2 best-case and 4
// worst-case similarity queries and 6 containment queries of 4/6/8 edges, in
// the rank order fixture.go explains.
func findMonoPool(db []*graph.Graph, idx *index.Set) ([]workload.Query, error) {
	best, worst, err := workload.FindSimilarityQueries(db, idx, 2, 4, workload.Options{Seed: 7, RareLabels: []string{"Hg"}})
	if err != nil {
		return nil, err
	}
	cq, err := workload.ContainmentQueries(db, 6, []int{4, 6, 8}, 7)
	if err != nil {
		return nil, err
	}
	if len(best) != 2 || len(worst) != 4 {
		return nil, fmt.Errorf("found %d best-case and %d worst-case similarity queries, want 2 and 4", len(best), len(worst))
	}
	return []workload.Query{
		best[0], best[1], cq[0], worst[0], cq[1], worst[1],
		cq[2], worst[2], cq[3], worst[3], cq[4], cq[5],
	}, nil
}

// The committed mono pool is what the search finds on the 1500-graph
// database: the dataset generator, the miner and workload.FindSimilarityQueries
// have not drifted away from queries.json. On failure the log holds the file
// to commit.
func TestMonoPoolIsTheSearchResult(t *testing.T) {
	if testing.Short() {
		t.Skip("mines the 1500-graph database and searches it: 8 s")
	}
	db, err := dataset.Molecules(monoData)
	if err != nil {
		t.Fatal(err)
	}
	mined, err := mining.Mine(db, mining.Options{MinSupportRatio: alpha, MaxSize: maxFrag, IncludeZeroSupportPairs: true})
	if err != nil {
		t.Fatal(err)
	}
	idx, err := index.Build(mined, alpha, beta)
	if err != nil {
		t.Fatal(err)
	}
	found, err := findMonoPool(db, idx)
	if err != nil {
		t.Fatal(err)
	}
	committed, err := monoPool(db)
	if err != nil {
		t.Fatal(err)
	}
	same := slices.EqualFunc(found, committed, func(a, b workload.Query) bool {
		return a.Name == b.Name && a.Class == b.Class && a.EmptyAtStep == b.EmptyAtStep &&
			slices.Equal(a.NodeLabels, b.NodeLabels) && slices.Equal(a.Edges, b.Edges)
	})
	if !same {
		lines := make([]string, len(found)) // one query per line, in rank order
		for i, q := range found {
			b, err := json.Marshal(q)
			if err != nil {
				t.Fatal(err)
			}
			lines[i] = string(b)
		}
		t.Errorf("queries.json is not what the search finds; it should read:\n[\n%s\n]", strings.Join(lines, ",\n"))
	}
}
