package core

import (
	"context"
	"errors"
	"math/rand"
	"testing"
	"time"

	"prague/internal/candcache"
	"prague/internal/faultinject"
	"prague/internal/store"
	"prague/internal/workpool"
)

// formulateCtx drives the engine through spec on ctx (so armed injectors see
// formulation-time probes too), choosing similarity whenever prompted.
func formulateCtx(t *testing.T, ctx context.Context, e *Engine, spec querySpec) {
	t.Helper()
	ids := make([]int, len(spec.labels))
	for i, l := range spec.labels {
		ids[i] = e.AddNode(l)
	}
	for _, ed := range spec.edges {
		out, err := e.AddEdgeCtx(ctx, ids[ed[0]], ids[ed[1]])
		if err != nil {
			t.Fatal(err)
		}
		if out.NeedsChoice {
			if _, err := e.ChooseSimilarityCtx(ctx); err != nil {
				t.Fatal(err)
			}
		}
	}
}

// assertSoundSubset checks the Truncated contract against the ground truth:
// every reported id is a true answer and its reported distance is a valid
// upper bound on (and at least) the true distance.
func assertSoundSubset(t *testing.T, got []Result, truth map[int]int) {
	t.Helper()
	for _, r := range got {
		want, ok := truth[r.GraphID]
		if !ok {
			t.Fatalf("graph %d reported but is not a true answer", r.GraphID)
		}
		if r.Distance < want {
			t.Fatalf("graph %d reported at distance %d < true distance %d", r.GraphID, r.Distance, want)
		}
	}
}

func TestLadderFullStageMatchesOracle(t *testing.T) {
	fx := makeFixture(t, 11, 30, 0.3)
	e, err := New(fx.db, fx.idx, 2)
	if err != nil {
		t.Fatal(err)
	}
	spec := randomQuerySpec(rand.New(rand.NewSource(7)), []string{"C", "N", "O"}, 4)
	formulateCtx(t, context.Background(), e, spec)
	out, err := e.RunDetailedCtx(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	if out.Stage != StageFull || out.Truncated || out.Faults != 0 {
		t.Fatalf("fault-free run degraded: %+v", out)
	}
	qg, _ := e.Query().Graph()
	sigma := 0
	if e.SimilarityMode() {
		sigma = e.Sigma()
	}
	truth := oracle(fx.db, qg, sigma)
	if len(out.Results) != len(truth) {
		t.Fatalf("got %d results, oracle has %d", len(out.Results), len(truth))
	}
	assertSoundSubset(t, out.Results, truth)
}

// layouts are the two in-process store layouts a ladder test runs over: the
// monolithic store and a 4-shard one, whose verify path is the same single
// pool batch.
var layouts = []struct {
	name string
	new  func(t *testing.T, fx *fixture) *Engine
}{
	{"mono", func(t *testing.T, fx *fixture) *Engine {
		e, err := New(fx.db, fx.idx, 2)
		if err != nil {
			t.Fatal(err)
		}
		return e
	}},
	{"shard4", func(t *testing.T, fx *fixture) *Engine {
		st, err := store.NewSharded(fx.db, fx.idx, 4)
		if err != nil {
			t.Fatal(err)
		}
		e, err := NewWithStore(st, 2)
		if err != nil {
			t.Fatal(err)
		}
		return e
	}},
}

// TestVerifyFaultsTruncateNeverWrong: injected verification errors must
// produce a flagged, sound subset — and the incomplete set must never be
// published to the shared cache (a later fault-free run is exact again).
func TestVerifyFaultsTruncateNeverWrong(t *testing.T) {
	fx := makeFixture(t, 12, 30, 0.3)
	for _, l := range layouts {
		t.Run(l.name, func(t *testing.T) {
			cache := candcache.New(1<<20, nil)
			var faults int64
			for seed := int64(0); seed < 6; seed++ {
				e := l.new(t, fx)
				e.SetCandidateCache(cache)
				inj := faultinject.New()
				ctx := faultinject.With(context.Background(), inj)
				spec := randomQuerySpec(rand.New(rand.NewSource(seed)), []string{"C", "N", "O", "S"}, 5)
				formulateCtx(t, ctx, e, spec)

				inj.Set(faultinject.SiteVerify, faultinject.Rule{Every: 2, Err: true})
				out, err := e.RunDetailedCtx(ctx)
				if err != nil {
					t.Fatalf("seed %d: faulted run errored: %v", seed, err)
				}
				qg, _ := e.Query().Graph()
				sigma := 0
				if e.SimilarityMode() {
					sigma = e.Sigma()
				}
				truth := oracle(fx.db, qg, sigma)
				if out.Faults > 0 {
					if !out.Truncated || out.Stage != StagePartial {
						t.Fatalf("seed %d: %d faults but outcome %+v", seed, out.Faults, out)
					}
					faults += out.Faults
				}
				assertSoundSubset(t, out.Results, truth)

				// Heal the faults: the next run must be exact, proving nothing
				// incomplete was served from or published to the cache. A
				// faulted containment run may have degraded the session to
				// similarity mode, so the ground truth is recomputed for the
				// healed run's mode.
				inj.Disarm()
				out2, err := e.RunDetailedCtx(ctx)
				if err != nil {
					t.Fatalf("seed %d: healed run errored: %v", seed, err)
				}
				sigma = 0
				if e.SimilarityMode() {
					sigma = e.Sigma()
				}
				truth = oracle(fx.db, qg, sigma)
				if out2.Truncated || len(out2.Results) != len(truth) {
					t.Fatalf("seed %d: healed run not exact: %d results, oracle %d, truncated=%v",
						seed, len(out2.Results), len(truth), out2.Truncated)
				}
				assertSoundSubset(t, out2.Results, truth)
			}
			if faults == 0 {
				t.Fatal("fixture: no verification fault fired on any seed")
			}
		})
	}
}

// TestWorkerPanicsTruncate: injected verification panics are recovered by
// the pool, fail only their candidate, and flag the outcome.
func TestWorkerPanicsTruncate(t *testing.T) {
	fx := makeFixture(t, 13, 30, 0.3)
	for _, l := range layouts {
		t.Run(l.name, func(t *testing.T) {
			pool := workpool.New(4)
			defer pool.Close()
			var total int64
			for seed := int64(0); seed < 6; seed++ {
				e := l.new(t, fx)
				e.SetPool(pool)
				inj := faultinject.New()
				ctx := faultinject.With(context.Background(), inj)
				spec := randomQuerySpec(rand.New(rand.NewSource(seed)), []string{"C", "N", "O", "S"}, 5)
				formulateCtx(t, ctx, e, spec)

				inj.Set(faultinject.SiteVerify, faultinject.Rule{Every: 3, Panic: true})
				before := pool.Panics()
				out, err := e.RunDetailedCtx(ctx)
				if err != nil {
					t.Fatal(err)
				}
				qg, _ := e.Query().Graph()
				sigma := 0
				if e.SimilarityMode() {
					sigma = e.Sigma()
				}
				assertSoundSubset(t, out.Results, oracle(fx.db, qg, sigma))
				if fired := inj.Fired(faultinject.SiteVerify); fired > 0 {
					if got := pool.Panics() - before; got != fired {
						t.Fatalf("seed %d: pool recovered %d panics, injector fired %d", seed, got, fired)
					}
					if !out.Truncated || out.Faults < fired {
						t.Fatalf("seed %d: %d panics but outcome %+v", seed, fired, out)
					}
					total += fired
				}
			}
			if total == 0 {
				t.Fatal("fixture: no verification panic fired on any seed")
			}
		})
	}
}

// TestIndexAndCacheFaultsStayExact: faults at the index-probe and cache
// sites degrade cost, not answers — the run stays StageFull and exact.
func TestIndexAndCacheFaultsStayExact(t *testing.T) {
	fx := makeFixture(t, 14, 30, 0.3)
	for _, site := range []faultinject.Site{faultinject.SiteIndex, faultinject.SiteCache} {
		e, err := New(fx.db, fx.idx, 2)
		if err != nil {
			t.Fatal(err)
		}
		e.SetCandidateCache(candcache.New(1<<20, nil))
		inj := faultinject.New()
		inj.Set(site, faultinject.Rule{Every: 2, Err: true})
		ctx := faultinject.With(context.Background(), inj)
		spec := randomQuerySpec(rand.New(rand.NewSource(9)), []string{"C", "N", "O"}, 5)
		formulateCtx(t, ctx, e, spec)
		out, err := e.RunDetailedCtx(ctx)
		if err != nil {
			t.Fatal(err)
		}
		if out.Truncated || out.Stage != StageFull {
			t.Fatalf("site %v: non-answer fault degraded the run: %+v", site, out)
		}
		qg, _ := e.Query().Graph()
		sigma := 0
		if e.SimilarityMode() {
			sigma = e.Sigma()
		}
		truth := oracle(fx.db, qg, sigma)
		if len(out.Results) != len(truth) {
			t.Fatalf("site %v: got %d results, oracle has %d (hits=%d fired=%d)",
				site, len(out.Results), len(truth), inj.Hits(site), inj.Fired(site))
		}
		assertSoundSubset(t, out.Results, truth)
	}
}

// TestBudgetLadder exercises the budget-expiry rungs: similarity fallback
// when Rfree is in hand, last-known-good when it is not, and the typed
// ErrBudgetExhausted when the session has nothing at all.
func TestBudgetLadder(t *testing.T) {
	fx := makeFixture(t, 15, 30, 0.3)

	// Similarity-mode session: an expired budget serves Rfree bounds. Scan
	// seeds for a query that actually has verification-free candidates.
	var (
		e    *Engine
		spec querySpec
	)
	for seed := int64(0); seed < 64; seed++ {
		cand, err := New(fx.db, fx.idx, 2)
		if err != nil {
			t.Fatal(err)
		}
		cspec := randomQuerySpec(rand.New(rand.NewSource(seed)), []string{"C", "N", "O", "S"}, 3)
		formulateCtx(t, context.Background(), cand, cspec)
		if !cand.SimilarityMode() {
			cand.ChooseSimilarity()
		}
		if cand.hasFree() {
			e, spec = cand, cspec
			break
		}
	}
	if e == nil {
		t.Fatal("no seed produced a similarity query with Rfree candidates")
	}
	qg, _ := e.Query().Graph()
	truth := oracle(fx.db, qg, e.Sigma())

	e.SetRunBudget(time.Nanosecond)
	out, err := e.RunDetailedCtx(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	if !out.Truncated {
		t.Fatalf("expired budget not flagged: %+v", out)
	}
	if out.Stage != StageSimilarity && out.Stage != StagePartial {
		t.Fatalf("unexpected stage %v", out.Stage)
	}
	assertSoundSubset(t, out.Results, truth)

	// A full run re-arms last-known-good; with Rfree gone an expired budget
	// serves it.
	e.SetRunBudget(0)
	full, err := e.RunDetailedCtx(context.Background())
	if err != nil || full.Stage != StageFull {
		t.Fatalf("full run failed: %+v %v", full, err)
	}
	e.sim = nil
	e.SetRunBudget(time.Nanosecond)
	out, err = e.RunDetailedCtx(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	if out.Stage != StageCachedGood || !out.Truncated {
		t.Fatalf("want cached_good, got %+v", out)
	}
	if len(out.Results) != len(full.Results) {
		t.Fatalf("cached_good served %d results, last good had %d", len(out.Results), len(full.Results))
	}

	// A fresh session with nothing to serve gets the typed error.
	e2, err := New(fx.db, fx.idx, 2)
	if err != nil {
		t.Fatal(err)
	}
	formulateCtx(t, context.Background(), e2, spec)
	if !e2.SimilarityMode() {
		e2.ChooseSimilarity()
	}
	e2.sim = nil
	e2.SetRunBudget(time.Nanosecond)
	_, err = e2.RunDetailedCtx(context.Background())
	if !errors.Is(err, ErrBudgetExhausted) {
		t.Fatalf("err = %v, want ErrBudgetExhausted", err)
	}

	// A cancelled caller context is still an error, not a degraded answer.
	cctx, cancel := context.WithCancel(context.Background())
	cancel()
	if _, err := e.RunDetailedCtx(cctx); !errors.Is(err, context.Canceled) {
		t.Fatalf("cancelled ctx: err = %v", err)
	}
}

// TestQuickSimilarityBoundsAreSound: the verification-free fallback only
// ever reports true answers with valid upper-bound distances.
func TestQuickSimilarityBoundsAreSound(t *testing.T) {
	fx := makeFixture(t, 16, 30, 0.3)
	for seed := int64(0); seed < 5; seed++ {
		e, err := New(fx.db, fx.idx, 3)
		if err != nil {
			t.Fatal(err)
		}
		spec := randomQuerySpec(rand.New(rand.NewSource(100+seed)), []string{"C", "N", "O", "S"}, 6)
		formulateCtx(t, context.Background(), e, spec)
		if !e.SimilarityMode() {
			e.ChooseSimilarity()
		}
		qg, _ := e.Query().Graph()
		truth := oracle(fx.db, qg, e.Sigma())
		assertSoundSubset(t, e.quickSimilarity(), truth)
	}
}

// TestLadderStageStrings pins the metric-facing stage names.
func TestLadderStageStrings(t *testing.T) {
	want := map[DegradeStage]string{
		StageFull:       "full",
		StagePartial:    "partial",
		StageSimilarity: "similarity_fallback",
		StageCachedGood: "cached_good",
	}
	for _, s := range Stages() {
		if s.String() != want[s] {
			t.Fatalf("stage %d = %q, want %q", s, s.String(), want[s])
		}
	}
}
