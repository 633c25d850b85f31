package prague_test

import (
	"testing"

	"prague/internal/core"
	"prague/internal/graph"
	"prague/internal/index"
	"prague/internal/store"
	"prague/internal/workload"
)

// shardEngine builds a fresh engine over st and formulates wq, resolving the
// empty-Rq choice like a user continuing approximately.
func shardEngine(tb testing.TB, st store.Store, wq workload.Query, sigma int) *core.Engine {
	tb.Helper()
	e, err := core.NewWithStore(st, sigma)
	if err != nil {
		tb.Fatal(err)
	}
	ids := make([]int, len(wq.NodeLabels))
	for i, l := range wq.NodeLabels {
		ids[i] = e.AddNode(l)
	}
	for _, ed := range wq.Edges {
		out, err := e.AddEdge(ids[ed[0]], ids[ed[1]])
		if err != nil {
			tb.Fatal(err)
		}
		if out.NeedsChoice {
			e.ChooseSimilarity()
		}
	}
	return e
}

// shardStore builds the n-shard layout (n = 1 uses the monolithic store the
// service defaults to).
func shardStore(tb testing.TB, db []*graph.Graph, idx *index.Set, n int) store.Store {
	tb.Helper()
	var (
		st  store.Store
		err error
	)
	if n == 1 {
		st, err = store.NewMem(db, idx)
	} else {
		st, err = store.NewSharded(db, idx, n)
	}
	if err != nil {
		tb.Fatal(err)
	}
	return st
}

// BenchmarkShardedRun measures the full formulate+Run pipeline against
// monolithic, 4-shard, and 8-shard layouts of the same database. The answers
// are byte-identical by construction; the interesting axis is how the SRT
// moves as candidate enumeration and verification fan out per shard.
func BenchmarkShardedRun(b *testing.B) {
	f := aidsFixture(b)
	wq := f.worst[0]
	for _, n := range []int{1, 4, 8} {
		st := shardStore(b, f.db, f.idx, n)
		b.Run(shardName(n), func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				e := shardEngine(b, st, wq, 3)
				if _, err := e.Run(); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

func shardName(n int) string {
	switch n {
	case 1:
		return "shards=1"
	case 4:
		return "shards=4"
	default:
		return "shards=8"
	}
}
