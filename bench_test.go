// Benchmarks: one testing.B target per table and figure of the paper's
// evaluation (see DESIGN.md §4), plus the ablations and a few
// micro-benchmarks of the hot substrate operations. These run at a small
// fixed scale so `go test -bench=.` finishes quickly; the cmd/experiments
// binary is the full harness (its -scale flag reaches paper-size inputs).
package prague_test

import (
	"context"
	"fmt"
	"sync"
	"testing"

	"prague/internal/core"
	"prague/internal/dataset"
	"prague/internal/distvp"
	"prague/internal/feature"
	"prague/internal/grafil"
	"prague/internal/graph"
	"prague/internal/index"
	"prague/internal/metrics"
	"prague/internal/mining"
	"prague/internal/service"
	"prague/internal/session"
	"prague/internal/sigma"
	"prague/internal/spig"
	"prague/internal/store"
	"prague/internal/workload"
)

// benchFixture is the shared small-scale AIDS-like setup.
type benchFixture struct {
	db          []*graph.Graph
	mined       *mining.Result
	idx         *index.Set
	feat        *feature.Index
	best        workload.Query   // Q1-like
	worst       []workload.Query // Q2-Q4-like
	containment workload.Query
}

var (
	fixOnce sync.Once
	fix     *benchFixture
	fixErr  error
)

func aidsFixture(b testing.TB) *benchFixture {
	b.Helper()
	fixOnce.Do(func() {
		f := &benchFixture{}
		f.db, fixErr = dataset.Molecules(dataset.MoleculeOptions{NumGraphs: 400, Seed: 42})
		if fixErr != nil {
			return
		}
		f.mined, fixErr = mining.Mine(f.db, mining.Options{
			MinSupportRatio: 0.1, MaxSize: 6, IncludeZeroSupportPairs: true,
		})
		if fixErr != nil {
			return
		}
		f.idx, fixErr = index.Build(f.mined, 0.1, 4)
		if fixErr != nil {
			return
		}
		f.feat, fixErr = feature.Build(f.db, f.mined, feature.Options{MaxFeatureSize: 3, CountCap: 64})
		if fixErr != nil {
			return
		}
		var best, worst []workload.Query
		best, worst, fixErr = workload.FindSimilarityQueries(f.db, f.idx, 1, 3, workload.Options{
			Seed: 42, Sigma: 3, MinEdges: 5, MaxEdges: 7, Attempts: 200,
		})
		if fixErr != nil {
			return
		}
		f.best, f.worst = best[0], worst
		var cqs []workload.Query
		cqs, fixErr = workload.ContainmentQueries(f.db, 1, []int{6}, 43)
		if fixErr != nil {
			return
		}
		f.containment = cqs[0]
		fix = f
	})
	if fixErr != nil {
		b.Fatal(fixErr)
	}
	return fix
}

// synthetic fixture for the Figure 10 / Table V benches.
type synFixture struct {
	db    []*graph.Graph
	mined *mining.Result
	idx   *index.Set
	feat  *feature.Index
	query workload.Query
}

var (
	synOnce sync.Once
	syn     *synFixture
	synErr  error
)

func syntheticFixture(b *testing.B) *synFixture {
	b.Helper()
	synOnce.Do(func() {
		f := &synFixture{}
		f.db, synErr = dataset.Synthetic(dataset.SyntheticOptions{NumGraphs: 400, Seed: 42})
		if synErr != nil {
			return
		}
		f.mined, synErr = mining.Mine(f.db, mining.Options{
			MinSupportRatio: 0.05, MaxSize: 5, IncludeZeroSupportPairs: true,
		})
		if synErr != nil {
			return
		}
		f.idx, synErr = index.Build(f.mined, 0.05, 4)
		if synErr != nil {
			return
		}
		f.feat, synErr = feature.Build(f.db, f.mined, feature.Options{MaxFeatureSize: 3, CountCap: 64})
		if synErr != nil {
			return
		}
		var worst []workload.Query
		_, worst, synErr = workload.FindSimilarityQueries(f.db, f.idx, 0, 1, workload.Options{
			Seed: 49, Sigma: 3, MinEdges: 5, MaxEdges: 6, Attempts: 200,
			RareLabels: []string{"L19", "L18", "L17"},
		})
		if synErr != nil {
			return
		}
		f.query = worst[0]
		syn = f
	})
	if synErr != nil {
		b.Fatal(synErr)
	}
	return syn
}

// ---- Table II ----

func BenchmarkTable2IndexSize(b *testing.B) {
	f := aidsFixture(b)
	b.ReportAllocs()
	var dvpSize, prgSize int64
	for i := 0; i < b.N; i++ {
		dvp, err := distvp.New(f.db, f.feat, 3)
		if err != nil {
			b.Fatal(err)
		}
		dvpSize = dvp.IndexSizeBytes()
		prgSize, _, _ = f.idx.SizeBytes()
	}
	b.ReportMetric(float64(dvpSize)/1024, "dvp-KB")
	b.ReportMetric(float64(prgSize)/1024, "prg-KB")
}

// ---- Figure 9(a) ----

func BenchmarkFig9aContainment(b *testing.B) {
	f := aidsFixture(b)
	b.Run("PRG", func(b *testing.B) {
		var srt float64
		for i := 0; i < b.N; i++ {
			rep, err := session.RunPrague(f.db, f.idx, f.containment, 3, session.Config{}, nil)
			if err != nil {
				b.Fatal(err)
			}
			srt = float64(rep.SRT.Microseconds())
		}
		b.ReportMetric(srt, "SRT-µs")
	})
	b.Run("GBR", func(b *testing.B) {
		var srt float64
		for i := 0; i < b.N; i++ {
			rep, err := session.RunGBlender(f.db, f.idx, f.containment, session.Config{}, nil)
			if err != nil {
				b.Fatal(err)
			}
			srt = float64(rep.SRT.Microseconds())
		}
		b.ReportMetric(srt, "SRT-µs")
	})
}

// ---- Figures 9(b)-(e) ----

func BenchmarkFig9CandidateSize(b *testing.B) {
	f := aidsFixture(b)
	wq := f.worst[0]
	qg := wq.Graph()
	b.Run("PRG", func(b *testing.B) {
		var total int
		for i := 0; i < b.N; i++ {
			rep, err := session.RunPrague(f.db, f.idx, wq, 3, session.Config{}, nil)
			if err != nil {
				b.Fatal(err)
			}
			total = rep.Total
		}
		b.ReportMetric(float64(total), "candidates")
	})
	b.Run("GR", func(b *testing.B) {
		gr, err := grafil.New(f.db, f.feat)
		if err != nil {
			b.Fatal(err)
		}
		var total int
		for i := 0; i < b.N; i++ {
			total = len(gr.Candidates(qg, 3))
		}
		b.ReportMetric(float64(total), "candidates")
	})
	b.Run("SG", func(b *testing.B) {
		sg, err := sigma.New(f.db, f.feat)
		if err != nil {
			b.Fatal(err)
		}
		var total int
		for i := 0; i < b.N; i++ {
			total = len(sg.Candidates(qg, 3))
		}
		b.ReportMetric(float64(total), "candidates")
	})
}

// ---- Figures 9(f)-(i) ----

func BenchmarkFig9SRT(b *testing.B) {
	f := aidsFixture(b)
	wq := f.worst[0]
	qg := wq.Graph()
	b.Run("PRG", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			if _, err := session.RunPrague(f.db, f.idx, wq, 3, session.Config{}, nil); err != nil {
				b.Fatal(err)
			}
		}
	})
	b.Run("GR", func(b *testing.B) {
		gr, err := grafil.New(f.db, f.feat)
		if err != nil {
			b.Fatal(err)
		}
		for i := 0; i < b.N; i++ {
			if _, _, err := gr.Query(qg, 3); err != nil {
				b.Fatal(err)
			}
		}
	})
	b.Run("SG", func(b *testing.B) {
		sg, err := sigma.New(f.db, f.feat)
		if err != nil {
			b.Fatal(err)
		}
		for i := 0; i < b.N; i++ {
			if _, _, err := sg.Query(qg, 3); err != nil {
				b.Fatal(err)
			}
		}
	})
}

// ---- Figure 9(j) ----

func BenchmarkFig9jAlpha(b *testing.B) {
	f := aidsFixture(b)
	for _, alpha := range []float64{0.05, 0.1, 0.2} {
		b.Run(alphaName(alpha), func(b *testing.B) {
			idx := f.idx
			if alpha != 0.1 {
				mined, err := mining.Mine(f.db, mining.Options{
					MinSupportRatio: alpha, MaxSize: 6, IncludeZeroSupportPairs: true,
				})
				if err != nil {
					b.Fatal(err)
				}
				idx, err = index.Build(mined, alpha, 4)
				if err != nil {
					b.Fatal(err)
				}
			}
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				if _, err := session.RunPrague(f.db, idx, f.worst[0], 3, session.Config{}, nil); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

func alphaName(a float64) string {
	switch a {
	case 0.05:
		return "alpha=0.05"
	case 0.1:
		return "alpha=0.10"
	default:
		return "alpha=0.20"
	}
}

// ---- Table III ----

func BenchmarkTable3SpigConstruction(b *testing.B) {
	f := aidsFixture(b)
	variants := map[string]workload.Query{
		"default":  f.worst[0],
		"permuted": f.worst[0].Permuted(77),
	}
	for name, wq := range variants {
		b.Run(name, func(b *testing.B) {
			var maxStep float64
			for i := 0; i < b.N; i++ {
				rep, err := session.RunPrague(f.db, f.idx, wq, 3, session.Config{}, nil)
				if err != nil {
					b.Fatal(err)
				}
				maxStep = 0
				for _, st := range rep.Steps {
					if v := float64(st.SpigTime.Microseconds()); v > maxStep {
						maxStep = v
					}
				}
			}
			b.ReportMetric(maxStep, "max-spig-µs")
		})
	}
}

// ---- Table IV ----

func BenchmarkTable4Modification(b *testing.B) {
	f := aidsFixture(b)
	wq := f.worst[0]
	var modUs float64
	for i := 0; i < b.N; i++ {
		rep, err := session.RunPrague(f.db, f.idx, wq, 3, session.Config{},
			[]session.Modification{{AfterEdges: wq.Size(), DeleteStep: 1}})
		if err != nil {
			b.Fatal(err)
		}
		modUs = float64(rep.ModificationTimes[0].Microseconds())
	}
	b.ReportMetric(modUs, "modify-µs")
}

// ---- Figure 10(a) ----

func BenchmarkFig10aIndexSize(b *testing.B) {
	f := syntheticFixture(b)
	var prgSize int64
	var grSize int64
	for i := 0; i < b.N; i++ {
		idx, err := index.Build(f.mined, 0.05, 4)
		if err != nil {
			b.Fatal(err)
		}
		prgSize, _, _ = idx.SizeBytes()
		gr, err := grafil.New(f.db, f.feat)
		if err != nil {
			b.Fatal(err)
		}
		grSize = gr.IndexSizeBytes()
	}
	b.ReportMetric(float64(prgSize)/1024, "prg-KB")
	b.ReportMetric(float64(grSize)/1024, "gr-KB")
}

// ---- Figures 10(b)-(e) ----

func BenchmarkFig10Scaling(b *testing.B) {
	f := syntheticFixture(b)
	qg := f.query.Graph()
	b.Run("PRG", func(b *testing.B) {
		var cand int
		for i := 0; i < b.N; i++ {
			rep, err := session.RunPrague(f.db, f.idx, f.query, 3, session.Config{}, nil)
			if err != nil {
				b.Fatal(err)
			}
			cand = rep.Total
		}
		b.ReportMetric(float64(cand), "candidates")
	})
	b.Run("GR", func(b *testing.B) {
		gr, err := grafil.New(f.db, f.feat)
		if err != nil {
			b.Fatal(err)
		}
		var cand int
		for i := 0; i < b.N; i++ {
			_, m, err := gr.Query(qg, 3)
			if err != nil {
				b.Fatal(err)
			}
			cand = m.Candidates
		}
		b.ReportMetric(float64(cand), "candidates")
	})
}

// ---- Table V ----

func BenchmarkTable5SyntheticModification(b *testing.B) {
	f := syntheticFixture(b)
	wq := f.query
	var modUs float64
	for i := 0; i < b.N; i++ {
		rep, err := session.RunPrague(f.db, f.idx, wq, 3, session.Config{},
			[]session.Modification{{AfterEdges: wq.Size(), DeleteStep: 1}})
		if err != nil {
			b.Fatal(err)
		}
		modUs = float64(rep.ModificationTimes[0].Microseconds())
	}
	b.ReportMetric(modUs, "modify-µs")
}

// ---- Ablations ----

func BenchmarkAblationSequenceInvariance(b *testing.B) {
	f := aidsFixture(b)
	wq := f.worst[0]
	alt := wq.Permuted(101)
	for i := 0; i < b.N; i++ {
		a, err := session.RunPrague(f.db, f.idx, wq, 3, session.Config{}, nil)
		if err != nil {
			b.Fatal(err)
		}
		c, err := session.RunPrague(f.db, f.idx, alt, 3, session.Config{}, nil)
		if err != nil {
			b.Fatal(err)
		}
		if a.Total != c.Total {
			b.Fatalf("sequence changed candidate set: %d vs %d", a.Total, c.Total)
		}
	}
}

func BenchmarkAblationFreeVsVer(b *testing.B) {
	f := aidsFixture(b)
	b.Run("best-case", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			if _, err := session.RunPrague(f.db, f.idx, f.best, 3, session.Config{}, nil); err != nil {
				b.Fatal(err)
			}
		}
	})
	b.Run("worst-case", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			if _, err := session.RunPrague(f.db, f.idx, f.worst[0], 3, session.Config{}, nil); err != nil {
				b.Fatal(err)
			}
		}
	})
}

func BenchmarkAblationDIFPruning(b *testing.B) {
	f := aidsFixture(b)
	stripped := &mining.Result{
		Frequent:  f.mined.Frequent,
		ByCode:    f.mined.ByCode,
		DIFByCode: map[string]*mining.Fragment{},
		MinSup:    f.mined.MinSup,
		MaxSize:   f.mined.MaxSize,
		NumGraphs: f.mined.NumGraphs,
	}
	noDif, err := index.Build(stripped, 0.1, 4)
	if err != nil {
		b.Fatal(err)
	}
	var with, without int
	for i := 0; i < b.N; i++ {
		var err error
		with, err = forcedSimilarityTotal(f.db, f.idx, f.worst[0], 3)
		if err != nil {
			b.Fatal(err)
		}
		without, err = forcedSimilarityTotal(f.db, noDif, f.worst[0], 3)
		if err != nil {
			b.Fatal(err)
		}
	}
	b.ReportMetric(float64(with), "cand-with-difs")
	b.ReportMetric(float64(without), "cand-without-difs")
}

// forcedSimilarityTotal formulates wq and forces similarity mode, returning
// |Rfree ∪ Rver| (without DIFs the engine cannot detect emptiness, so the
// comparison needs a forced switch).
func forcedSimilarityTotal(db []*graph.Graph, idx *index.Set, wq workload.Query, sig int) (int, error) {
	e, err := core.New(db, idx, sig)
	if err != nil {
		return 0, err
	}
	ids := make([]int, len(wq.NodeLabels))
	for i, l := range wq.NodeLabels {
		ids[i] = e.AddNode(l)
	}
	for _, ed := range wq.Edges {
		out, err := e.AddEdge(ids[ed[0]], ids[ed[1]])
		if err != nil {
			return 0, err
		}
		if out.NeedsChoice {
			e.ChooseSimilarity()
		}
	}
	e.ChooseSimilarity()
	_, _, total := e.CandidateCounts()
	return total, nil
}

func BenchmarkAblationBeta(b *testing.B) {
	f := aidsFixture(b)
	for _, beta := range []int{3, 5} {
		name := "beta=3"
		if beta == 5 {
			name = "beta=5"
		}
		b.Run(name, func(b *testing.B) {
			idx, err := index.Build(f.mined, 0.1, beta)
			if err != nil {
				b.Fatal(err)
			}
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				if _, err := session.RunPrague(f.db, idx, f.worst[0], 3, session.Config{}, nil); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

// ---- substrate micro-benchmarks ----

func BenchmarkMinDFSCode(b *testing.B) {
	f := aidsFixture(b)
	g := f.db[0]
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		graph.CanonicalCode(g)
	}
}

func BenchmarkSubgraphIsomorphism(b *testing.B) {
	f := aidsFixture(b)
	q := f.containment.Graph()
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		for _, g := range f.db[:50] {
			graph.SubgraphIsomorphic(q, g)
		}
	}
}

func BenchmarkSpigConstructPerStep(b *testing.B) {
	f := aidsFixture(b)
	wq := f.worst[0]
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		e, err := core.New(f.db, f.idx, 3)
		if err != nil {
			b.Fatal(err)
		}
		ids := make([]int, len(wq.NodeLabels))
		for j, l := range wq.NodeLabels {
			ids[j] = e.AddNode(l)
		}
		for _, ed := range wq.Edges {
			out, err := e.AddEdge(ids[ed[0]], ids[ed[1]])
			if err != nil {
				b.Fatal(err)
			}
			if out.NeedsChoice {
				e.ChooseSimilarity()
			}
		}
	}
}

func BenchmarkMining(b *testing.B) {
	f := aidsFixture(b)
	small := f.db[:100]
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		if _, err := mining.Mine(small, mining.Options{MinSupportRatio: 0.15, MaxSize: 4}); err != nil {
			b.Fatal(err)
		}
	}
}

// ---- Candidate cache (shared cross-session verification cache) ----

// candCacheFleet is the number of sessions in the repeated-fragment
// multi-session workload: every session formulates the same query, so all but
// the first should be served from the shared cache (or coalesced onto the
// first's in-flight verification).
const candCacheFleet = 6

// cacheBenchFixture is a dedicated, larger database for the candidate-cache
// benchmarks. Cache wins scale with verification cost, which grows with the
// database, while per-step SPIG construction does not — at the small shared
// fixture's 400 graphs formulation overhead drowns out the cached work.
type cacheBenchFixture struct {
	db  []*graph.Graph
	idx *index.Set
	wq  workload.Query
}

var (
	cacheFixOnce sync.Once
	cacheFix     *cacheBenchFixture
	cacheFixErr  error
)

func cacheFixture(b testing.TB) *cacheBenchFixture {
	b.Helper()
	cacheFixOnce.Do(func() {
		f := &cacheBenchFixture{}
		f.db, cacheFixErr = dataset.Molecules(dataset.MoleculeOptions{NumGraphs: 1600, Seed: 42, MeanNodes: 45})
		if cacheFixErr != nil {
			return
		}
		var mined *mining.Result
		mined, cacheFixErr = mining.Mine(f.db, mining.Options{
			MinSupportRatio: 0.15, MaxSize: 5, IncludeZeroSupportPairs: true,
		})
		if cacheFixErr != nil {
			return
		}
		f.idx, cacheFixErr = index.Build(mined, 0.15, 4)
		if cacheFixErr != nil {
			return
		}
		// Sample containment queries (6 edges — one above the mined MaxSize,
		// so the engine can never answer them verification-free) and keep the
		// one with the largest candidate set: its Run is dominated by the
		// subgraph-isomorphism verification the cache elides. Selection only
		// formulates (set algebra), it never runs verification.
		var cqs []workload.Query
		cqs, cacheFixErr = workload.ContainmentQueries(f.db, 6, []int{6}, 44)
		if cacheFixErr != nil {
			return
		}
		best := 0
		for _, wq := range cqs {
			var eng *core.Engine
			eng, cacheFixErr = core.New(f.db, f.idx, 3)
			if cacheFixErr != nil {
				return
			}
			ids := make([]int, len(wq.NodeLabels))
			for i, l := range wq.NodeLabels {
				ids[i] = eng.AddNode(l)
			}
			exact := true
			for _, ed := range wq.Edges {
				var out core.StepOutcome
				out, cacheFixErr = eng.AddEdge(ids[ed[0]], ids[ed[1]])
				if cacheFixErr != nil {
					return
				}
				if out.NeedsChoice {
					eng.ChooseSimilarity()
					exact = false
				}
			}
			if rq := len(eng.Rq()); exact && rq > best {
				best, f.wq = rq, wq
			}
		}
		if best == 0 {
			cacheFixErr = fmt.Errorf("cache fixture: no containment query with a non-empty candidate set")
			return
		}
		cacheFix = f
	})
	if cacheFixErr != nil {
		b.Fatal(cacheFixErr)
	}
	return cacheFix
}

// newCacheBenchService builds a service over the cache fixture with the given
// cache budget (≤ 0 disables the cache) and a private metrics registry.
func newCacheBenchService(tb testing.TB, f *cacheBenchFixture, cacheBytes int64) *service.Service {
	tb.Helper()
	st, err := store.NewMem(f.db, f.idx)
	if err != nil {
		tb.Fatal(err)
	}
	svc, err := service.NewFromStore(st,
		service.WithSigma(3),
		service.WithMetrics(metrics.NewRegistry()),
		service.WithSessionTTL(0),
		service.WithCandidateCache(cacheBytes))
	if err != nil {
		tb.Fatal(err)
	}
	return svc
}

// driveServiceSession formulates wq edge by edge in a fresh session, runs it,
// and deletes the session. Returns an error instead of failing the test so it
// can run on fleet goroutines.
func driveServiceSession(svc *service.Service, wq workload.Query) error {
	ctx := context.Background()
	ss, err := svc.Create(ctx)
	if err != nil {
		return err
	}
	ids := make([]int, len(wq.NodeLabels))
	for i, l := range wq.NodeLabels {
		if ids[i], err = ss.AddNode(l); err != nil {
			return err
		}
	}
	for _, ed := range wq.Edges {
		out, err := ss.AddEdge(ctx, ids[ed[0]], ids[ed[1]])
		if err != nil {
			return err
		}
		if out.NeedsChoice {
			if _, err := ss.ChooseSimilarity(ctx); err != nil {
				return err
			}
		}
	}
	if _, err := ss.Run(ctx); err != nil {
		return err
	}
	return svc.Delete(ss.ID())
}

// runCacheFleet formulates the same query in candCacheFleet concurrent
// sessions and waits for all of them.
func runCacheFleet(svc *service.Service, wq workload.Query, sessions int) error {
	errc := make(chan error, sessions)
	for s := 0; s < sessions; s++ {
		go func() { errc <- driveServiceSession(svc, wq) }()
	}
	var first error
	for s := 0; s < sessions; s++ {
		if err := <-errc; err != nil && first == nil {
			first = err
		}
	}
	return first
}

// BenchmarkCandCacheColdMiss times one full session against an empty cache:
// every candidate list and containment set is computed and published.
func BenchmarkCandCacheColdMiss(b *testing.B) {
	f := cacheFixture(b)
	wq := f.wq
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		b.StopTimer()
		svc := newCacheBenchService(b, f, service.DefaultCandCacheBytes)
		b.StartTimer()
		if err := driveServiceSession(svc, wq); err != nil {
			b.Fatal(err)
		}
		b.StopTimer()
		svc.Close()
		b.StartTimer()
	}
}

// BenchmarkCandCacheWarmHit times a session whose every fragment was already
// published by an earlier session of the same service.
func BenchmarkCandCacheWarmHit(b *testing.B) {
	f := cacheFixture(b)
	wq := f.wq
	svc := newCacheBenchService(b, f, service.DefaultCandCacheBytes)
	defer svc.Close()
	if err := driveServiceSession(svc, wq); err != nil {
		b.Fatal(err)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if err := driveServiceSession(svc, wq); err != nil {
			b.Fatal(err)
		}
	}
	b.StopTimer()
	b.ReportMetric(svc.CandidateCache().Stats().HitRatio(), "hit-ratio")
}

// BenchmarkCandCacheMultiSession is the headline comparison: a fleet of
// concurrent sessions formulating the same query against a fresh service,
// with and without the shared cache.
func BenchmarkCandCacheMultiSession(b *testing.B) {
	f := cacheFixture(b)
	wq := f.wq
	for _, v := range []struct {
		name  string
		bytes int64
	}{
		{"cache-on", service.DefaultCandCacheBytes},
		{"cache-off", 0},
	} {
		b.Run(v.name, func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				b.StopTimer()
				svc := newCacheBenchService(b, f, v.bytes)
				b.StartTimer()
				if err := runCacheFleet(svc, wq, candCacheFleet); err != nil {
					b.Fatal(err)
				}
				b.StopTimer()
				svc.Close()
				b.StartTimer()
			}
		})
	}
}

func BenchmarkSpigSetDeleteEdge(b *testing.B) {
	f := aidsFixture(b)
	wq := f.worst[0]
	b.ReportAllocs()
	b.StopTimer()
	for i := 0; i < b.N; i++ {
		e, err := core.New(f.db, f.idx, 3)
		if err != nil {
			b.Fatal(err)
		}
		ids := make([]int, len(wq.NodeLabels))
		for j, l := range wq.NodeLabels {
			ids[j] = e.AddNode(l)
		}
		var lastSpigs *spig.Set
		for _, ed := range wq.Edges {
			out, err := e.AddEdge(ids[ed[0]], ids[ed[1]])
			if err != nil {
				b.Fatal(err)
			}
			if out.NeedsChoice {
				e.ChooseSimilarity()
			}
			lastSpigs = e.Spigs()
		}
		_ = lastSpigs
		del := 0
		for _, s := range e.Query().Steps() {
			if e.Query().CanDelete(s) {
				del = s
				break
			}
		}
		b.StartTimer()
		if _, err := e.DeleteEdge(del); err != nil {
			b.Fatal(err)
		}
		b.StopTimer()
	}
}

// newTraceBenchService builds a service over the shared AIDS fixture in one
// of three tracing configurations: "notrace" (no tracer object at all),
// "disabled" (tracer constructed but switched off — the production default
// when an operator keeps -trace ready to flip on), and "enabled".
func newTraceBenchService(tb testing.TB, f *benchFixture, mode string) *service.Service {
	tb.Helper()
	opts := []service.Option{
		service.WithSigma(3),
		service.WithMetrics(metrics.NewRegistry()),
		service.WithSessionTTL(0),
	}
	if mode != "notrace" {
		opts = append(opts, service.WithTracing(true))
	}
	st, err := store.NewMem(f.db, f.idx)
	if err != nil {
		tb.Fatal(err)
	}
	svc, err := service.NewFromStore(st, opts...)
	if err != nil {
		tb.Fatal(err)
	}
	if mode == "disabled" {
		svc.Tracer().SetEnabled(false)
	}
	return svc
}

// formulateSession drives the fixture's containment query through a fresh
// session — the hot AddEdge path only, no Run — and deletes the session.
func formulateSession(svc *service.Service, wq workload.Query) error {
	ctx := context.Background()
	ss, err := svc.Create(ctx)
	if err != nil {
		return err
	}
	ids := make([]int, len(wq.NodeLabels))
	for i, l := range wq.NodeLabels {
		if ids[i], err = ss.AddNode(l); err != nil {
			return err
		}
	}
	for _, ed := range wq.Edges {
		out, err := ss.AddEdge(ctx, ids[ed[0]], ids[ed[1]])
		if err != nil {
			return err
		}
		if out.NeedsChoice {
			if _, err := ss.ChooseSimilarity(ctx); err != nil {
				return err
			}
		}
	}
	return svc.Delete(ss.ID())
}

// BenchmarkAddEdgeTraceOverhead compares the formulation hot path across the
// three tracing configurations. The disabled configuration must be
// indistinguishable from no tracer: its only cost is one atomic load per
// user action and a context-value miss per instrumentation site.
func BenchmarkAddEdgeTraceOverhead(b *testing.B) {
	f := aidsFixture(b)
	wq := f.containment
	for _, mode := range []string{"notrace", "disabled", "enabled"} {
		b.Run(mode, func(b *testing.B) {
			svc := newTraceBenchService(b, f, mode)
			defer svc.Close()
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				if err := formulateSession(svc, wq); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}
