package prague_test

import (
	"sync"
	"testing"

	"prague/internal/core"
	"prague/internal/dataset"
	"prague/internal/graph"
	"prague/internal/index"
	"prague/internal/mining"
	"prague/internal/workload"
)

// filterFixture is the verify-prefilter workload: a database large enough
// for verification to dominate SRT, and a worst-case similarity query in the
// regime the count filter exists for — a spread heteroatom "comb" whose
// sub-patterns never occur in the database, so mining never indexed them
// (no Υ pruning) and the A²F probe degrades to near-whole-database candidate
// sets, every one of which fails VF2 the slow way. Count filtering prunes
// those sets by label multiplicity (a graph with three nitrogens cannot
// contain a six-nitrogen fragment) before the verifier runs.
type filterFixture struct {
	db    []*graph.Graph
	idx   *index.Set
	worst workload.Query
}

var (
	filterFixOnce sync.Once
	filterFix     *filterFixture
	filterFixErr  error
)

// filterWorstQuery is the handcrafted worst-case similarity query: a carbon
// path with one nitrogen leaf per position. Every sub-comb with ≥3
// heteroatoms has zero support in the seeded database, so all SPIG levels
// within σ classify NIF with frequent-only Φ lists that intersect to nearly
// the whole database.
func filterWorstQuery() workload.Query {
	const n = 7
	q := workload.Query{Name: "comb-n7", Class: "worst"}
	for i := 0; i < n; i++ {
		q.NodeLabels = append(q.NodeLabels, "C")
	}
	for i := 0; i < n; i++ {
		q.NodeLabels = append(q.NodeLabels, "N")
	}
	for i := 1; i < n; i++ {
		q.Edges = append(q.Edges, [2]int{i - 1, i})
	}
	for i := 0; i < n; i++ {
		q.Edges = append(q.Edges, [2]int{i, n + i})
	}
	return q
}

func filterFixtureGet(tb testing.TB) *filterFixture {
	tb.Helper()
	filterFixOnce.Do(func() {
		f := &filterFixture{worst: filterWorstQuery()}
		f.db, filterFixErr = dataset.Molecules(dataset.MoleculeOptions{NumGraphs: 3000, Seed: 42, MeanNodes: 28})
		if filterFixErr != nil {
			return
		}
		var mined *mining.Result
		mined, filterFixErr = mining.Mine(f.db, mining.Options{
			MinSupportRatio: 0.1, MaxSize: 6, IncludeZeroSupportPairs: true,
		})
		if filterFixErr != nil {
			return
		}
		f.idx, filterFixErr = index.Build(mined, 0.1, 4)
		filterFix = f
	})
	if filterFixErr != nil {
		tb.Fatal(filterFixErr)
	}
	return filterFix
}

// filterEngine formulates wq on a fresh uncached engine (formulation is the
// untimed prologue; Run is what the benchmark times).
func filterEngine(tb testing.TB, f *filterFixture, wq workload.Query) *core.Engine {
	tb.Helper()
	e, err := core.New(f.db, f.idx, 3)
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
	if e.AwaitingChoice() {
		e.ChooseSimilarity()
	}
	return e
}

// BenchmarkFilterChooser times the worst-case similarity Run, whose levels
// repeat the nitrogen feature and so meet the count filter.
func BenchmarkFilterChooser(b *testing.B) {
	f := filterFixtureGet(b)
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		b.StopTimer()
		e := filterEngine(b, f, f.worst)
		b.StartTimer()
		if _, err := e.Run(); err != nil {
			b.Fatal(err)
		}
	}
}
