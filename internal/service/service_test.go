package service

import (
	"context"
	"errors"
	"fmt"
	"math/rand"
	"sync"
	"testing"
	"time"

	"prague/internal/clock"
	"prague/internal/core"
	"prague/internal/faultinject"
	"prague/internal/graph"
	"prague/internal/index"
	"prague/internal/metrics"
	"prague/internal/mining"
	"prague/internal/store"
)

// buildFixture hand-builds a random connected molecule-like database and
// mines its action-aware indexes.
func buildFixture(tb testing.TB, n int, seed int64, alpha float64, maxFrag int) ([]*graph.Graph, *index.Set) {
	tb.Helper()
	r := rand.New(rand.NewSource(seed))
	labels := []string{"C", "C", "C", "C", "N", "O", "S"}
	var db []*graph.Graph
	for i := 0; i < n; i++ {
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
	// One graph carries the rare label P, bonded only to C: the pair P-P is
	// then in the vocabulary with zero support, so a P-P query edge
	// deterministically empties Rq (the awaiting-choice scenario).
	rare := graph.New(n)
	rare.AddNode("C")
	rare.AddNode("P")
	rare.MustAddEdge(0, 1)
	db = append(db, rare)
	res, err := mining.Mine(db, mining.Options{MinSupportRatio: alpha, MaxSize: maxFrag, IncludeZeroSupportPairs: true})
	if err != nil {
		tb.Fatal(err)
	}
	idx, err := index.Build(res, alpha, 3)
	if err != nil {
		tb.Fatal(err)
	}
	return db, idx
}

var (
	smallOnce sync.Once
	smallDB   []*graph.Graph
	smallIdx  *index.Set
)

func smallFixture(tb testing.TB) ([]*graph.Graph, *index.Set) {
	smallOnce.Do(func() {
		smallDB, smallIdx = buildFixture(tb, 150, 17, 0.3, 8)
	})
	return smallDB, smallIdx
}

// newMem builds a service over a monolithic store of db and idx.
func newMem(db []*graph.Graph, idx *index.Set, opts ...Option) (*Service, error) {
	st, err := store.NewSharded(db, idx, 1)
	if err != nil {
		return nil, err
	}
	return NewFromStore(st, opts...)
}

// formulateAndRun drives one full session through the service: a short
// random connected query, similarity choice when prompted, then Run.
func formulateAndRun(ctx context.Context, svc *Service, r *rand.Rand) error {
	ss, err := svc.Create(ctx)
	if err != nil {
		return err
	}
	defer svc.Delete(ss.ID())

	labels := []string{"C", "N", "O"}
	var ids []int
	for i := 0; i < 4; i++ {
		id, err := ss.AddNode(labels[r.Intn(len(labels))])
		if err != nil {
			return err
		}
		ids = append(ids, id)
	}
	for i := 1; i < len(ids); i++ {
		out, err := ss.AddEdge(ctx, ids[r.Intn(i)], ids[i])
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
	info, err := ss.Describe()
	if err != nil {
		return err
	}
	if info.QuerySize != 3 {
		return fmt.Errorf("session %s: query size %d after 3 edges", ss.ID(), info.QuerySize)
	}
	return nil
}

// TestConcurrentSessions is the -race stress test: many goroutines create,
// step, run, and delete overlapping sessions against one shared Service
// with a shared verification pool.
func TestConcurrentSessions(t *testing.T) {
	db, idx := smallFixture(t)
	reg := metrics.NewRegistry()
	svc, err := newMem(db, idx, WithSigma(2), WithVerifyWorkers(4), WithMetrics(reg), WithSessionTTL(0))
	if err != nil {
		t.Fatal(err)
	}
	defer svc.Close()

	const goroutines = 12
	const sessionsPerGoroutine = 6
	errCh := make(chan error, goroutines)
	var wg sync.WaitGroup
	for g := 0; g < goroutines; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			r := rand.New(rand.NewSource(int64(1000 + g)))
			for i := 0; i < sessionsPerGoroutine; i++ {
				if err := formulateAndRun(context.Background(), svc, r); err != nil {
					errCh <- fmt.Errorf("goroutine %d session %d: %w", g, i, err)
					return
				}
			}
		}(g)
	}
	wg.Wait()
	close(errCh)
	for err := range errCh {
		t.Fatal(err)
	}
	if n := svc.Len(); n != 0 {
		t.Fatalf("%d sessions leaked after deletes", n)
	}
	snap := reg.Snapshot()
	if got := snap.Counters[metrics.CounterSessionsCreated]; got != goroutines*sessionsPerGoroutine {
		t.Fatalf("sessions_created = %d, want %d", got, goroutines*sessionsPerGoroutine)
	}
	if snap.Counters[metrics.CounterSessionsActive] != 0 {
		t.Fatalf("sessions_active = %d, want 0", snap.Counters[metrics.CounterSessionsActive])
	}
	if snap.Counters[metrics.CounterStepsEvaluated] == 0 {
		t.Fatal("steps_evaluated stayed zero")
	}
	if snap.Histograms[metrics.HistSRT].Count != goroutines*sessionsPerGoroutine {
		t.Fatalf("srt histogram count = %d", snap.Histograms[metrics.HistSRT].Count)
	}
}

// TestSharedSessionConcurrentUse hammers a single session from several
// goroutines: the per-session mutex must serialize the canvas safely.
func TestSharedSessionConcurrentUse(t *testing.T) {
	db, idx := smallFixture(t)
	svc, err := newMem(db, idx, WithSigma(2), WithMetrics(metrics.NewRegistry()))
	if err != nil {
		t.Fatal(err)
	}
	defer svc.Close()

	ss, err := svc.Create(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	a, _ := ss.AddNode("C")
	b, _ := ss.AddNode("C")
	if out, err := ss.AddEdge(context.Background(), a, b); err != nil {
		t.Fatal(err)
	} else if out.NeedsChoice {
		ss.ChooseSimilarity(context.Background())
	}

	var wg sync.WaitGroup
	for g := 0; g < 8; g++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < 10; i++ {
				if _, err := ss.Run(context.Background()); err != nil && !errors.Is(err, core.ErrAwaitingChoice) {
					t.Error(err)
					return
				}
				if _, err := ss.Describe(); err != nil {
					t.Error(err)
					return
				}
			}
		}()
	}
	wg.Wait()
}

func TestSessionLifecycleAndSentinels(t *testing.T) {
	db, idx := smallFixture(t)
	reg := metrics.NewRegistry()
	svc, err := newMem(db, idx, WithSigma(1), WithMaxSessions(2), WithMetrics(reg), WithSessionTTL(0))
	if err != nil {
		t.Fatal(err)
	}
	defer svc.Close()
	ctx := context.Background()

	s1, err := svc.Create(ctx)
	if err != nil {
		t.Fatal(err)
	}
	if got, err := svc.Get(s1.ID()); err != nil || got != s1 {
		t.Fatalf("Get(%q) = %v, %v", s1.ID(), got, err)
	}
	if _, err := svc.Get("nope"); !errors.Is(err, ErrSessionNotFound) {
		t.Fatalf("Get unknown id: %v", err)
	}

	// Session limit.
	if _, err := svc.Create(ctx); err != nil {
		t.Fatal(err)
	}
	if _, err := svc.Create(ctx); !errors.Is(err, ErrTooManySessions) {
		t.Fatalf("over limit: %v", err)
	}

	// Run on an empty query surfaces core's sentinel.
	if _, err := s1.Run(ctx); !errors.Is(err, core.ErrEmptyQuery) {
		t.Fatalf("run empty: %v", err)
	}

	// Delete, then every session method refuses.
	if err := svc.Delete(s1.ID()); err != nil {
		t.Fatal(err)
	}
	if err := svc.Delete(s1.ID()); !errors.Is(err, ErrSessionNotFound) {
		t.Fatalf("double delete: %v", err)
	}
	if _, err := s1.AddNode("C"); !errors.Is(err, ErrSessionNotFound) {
		t.Fatalf("AddNode on deleted session: %v", err)
	}
	if _, err := s1.Run(ctx); !errors.Is(err, ErrSessionNotFound) {
		t.Fatalf("Run on deleted session: %v", err)
	}

	svc.Close()
	if _, err := svc.Create(ctx); !errors.Is(err, ErrServiceClosed) {
		t.Fatalf("create after close: %v", err)
	}
	if _, err := svc.Get("s000001"); !errors.Is(err, ErrServiceClosed) {
		t.Fatalf("get after close: %v", err)
	}
}

func TestRunRefusesWhileAwaitingChoice(t *testing.T) {
	db, idx := smallFixture(t)
	svc, err := newMem(db, idx, WithSigma(2), WithMetrics(metrics.NewRegistry()))
	if err != nil {
		t.Fatal(err)
	}
	defer svc.Close()
	ctx := context.Background()

	// The fixture guarantees P-P is a zero-support vocabulary pair, so this
	// edge deterministically empties Rq and demands the choice.
	ss, err := svc.Create(ctx)
	if err != nil {
		t.Fatal(err)
	}
	a, _ := ss.AddNode("P")
	b, _ := ss.AddNode("P")
	out, err := ss.AddEdge(ctx, a, b)
	if err != nil {
		t.Fatal(err)
	}
	if !out.NeedsChoice {
		t.Fatal("P-P edge did not empty Rq; fixture invariant broken")
	}
	if _, err := ss.Run(ctx); !errors.Is(err, core.ErrAwaitingChoice) {
		t.Fatalf("run while awaiting choice: err = %v, want ErrAwaitingChoice", err)
	}
	if _, err := ss.ChooseSimilarity(ctx); err != nil {
		t.Fatal(err)
	}
	if _, err := ss.Run(ctx); err != nil {
		t.Fatalf("run after choice: %v", err)
	}
}

// TestIdleEviction drives the janitor itself through a fake clock: ticks
// fire only when the test advances time, and the janitor hook reports every
// sweep, so the test is deterministic under -race with no sleeps.
func TestIdleEviction(t *testing.T) {
	db, idx := smallFixture(t)
	reg := metrics.NewRegistry()
	fake := clock.NewFake(time.Date(2026, 1, 1, 0, 0, 0, 0, time.UTC))
	sweeps := make(chan int, 64)
	svc, err := newMem(db, idx, WithSigma(1), WithSessionTTL(time.Minute), WithMetrics(reg),
		WithClock(fake), withJanitorHook(func(n int) { sweeps <- n }))
	if err != nil {
		t.Fatal(err)
	}
	defer svc.Close()
	ctx := context.Background()

	idle, err := svc.Create(ctx)
	if err != nil {
		t.Fatal(err)
	}
	busy, err := svc.Create(ctx)
	if err != nil {
		t.Fatal(err)
	}

	// Half a TTL passes; only the busy session is touched. Any janitor sweep
	// at this instant finds nobody stale.
	fake.Advance(45 * time.Second)
	if _, err := busy.AddNode("C"); err != nil {
		t.Fatal(err)
	}

	// Now 90s have passed for the idle session (past the 60s TTL) and 45s
	// for the busy one (within it). Every sweep from here on evicts exactly
	// the idle session, once.
	fake.Advance(45 * time.Second)
	deadline := time.After(10 * time.Second)
	evicted := 0
	for evicted < 1 {
		select {
		case n := <-sweeps:
			evicted += n
		case <-deadline:
			t.Fatal("janitor never evicted the idle session")
		}
	}
	if evicted != 1 {
		t.Fatalf("janitor evicted %d sessions, want 1", evicted)
	}
	if _, err := svc.Get(idle.ID()); !errors.Is(err, ErrSessionNotFound) {
		t.Fatalf("idle session still resolvable: %v", err)
	}
	if _, err := idle.AddNode("C"); !errors.Is(err, ErrSessionNotFound) {
		t.Fatalf("evicted session still usable: %v", err)
	}
	if _, err := svc.Get(busy.ID()); err != nil {
		t.Fatalf("busy session evicted: %v", err)
	}
	if got := reg.Snapshot().Counters[metrics.CounterSessionsEvicted]; got != 1 {
		t.Fatalf("sessions_evicted = %d, want 1", got)
	}
}

// TestEvictIdleDirect covers EvictIdle's TTL guard: with eviction disabled
// (TTL ≤ 0, no janitor), an explicit call is a no-op however stale the
// sessions are.
func TestEvictIdleDirect(t *testing.T) {
	db, idx := smallFixture(t)
	fake := clock.NewFake(time.Date(2026, 1, 1, 0, 0, 0, 0, time.UTC))
	// TTL 0 disables the janitor goroutine entirely; EvictIdle then reports
	// 0 regardless of idleness.
	svc, err := newMem(db, idx, WithSigma(1), WithSessionTTL(0), WithMetrics(metrics.NewRegistry()), WithClock(fake))
	if err != nil {
		t.Fatal(err)
	}
	defer svc.Close()
	if _, err := svc.Create(context.Background()); err != nil {
		t.Fatal(err)
	}
	fake.Advance(24 * time.Hour)
	if n := svc.EvictIdle(); n != 0 {
		t.Fatalf("EvictIdle with TTL disabled evicted %d, want 0", n)
	}
	if svc.Len() != 1 {
		t.Fatalf("session count = %d, want 1", svc.Len())
	}
}

// TestRunCancellationMidVerification is the acceptance test for context
// plumbing: on a large synthetic database, cancelling RunCtx while the
// verification fan-out is in flight must return a wrapped context.Canceled,
// and a deadline passing mid-verification a wrapped
// context.DeadlineExceeded — partial results, not hangs. Both land without
// a timing race: a SiteVerify rule parks every k-th candidate check far
// longer than the test runs, so the workers stop one by one and verification
// is still in flight when the cancel or the deadline arrives.
func TestRunCancellationMidVerification(t *testing.T) {
	if testing.Short() {
		t.Skip("large fixture")
	}
	db, idx := buildFixture(t, 16_000, 23, 0.3, 6)
	// Caching is disabled, so every run verifies its candidates afresh; the
	// count prefilter is deterministic, so each run's candidate checks are
	// the same.
	inj := faultinject.New()
	svc, err := newMem(db, idx, WithSigma(4), WithVerifyWorkers(4), WithMetrics(metrics.NewRegistry()),
		WithSessionTTL(0), WithCandidateCache(0), WithFaultInjection(inj))
	if err != nil {
		t.Fatal(err)
	}
	defer svc.Close()

	formulate := func(ctx context.Context) *Session {
		t.Helper()
		ss, err := svc.Create(ctx)
		if err != nil {
			t.Fatal(err)
		}
		labels := []string{"C", "C", "N", "O"}
		var ids []int
		for _, l := range labels {
			id, err := ss.AddNode(l)
			if err != nil {
				t.Fatal(err)
			}
			ids = append(ids, id)
		}
		for i := 1; i < len(ids); i++ {
			out, err := ss.AddEdge(ctx, ids[i-1], ids[i])
			if err != nil {
				t.Fatal(err)
			}
			if out.NeedsChoice {
				if _, err := ss.ChooseSimilarity(ctx); err != nil {
					t.Fatal(err)
				}
			}
		}
		// Force similarity mode: with σ ≥ |q| every graph is admitted, so
		// Run must grind through the whole database's verification.
		if _, err := ss.ChooseSimilarity(ctx); err != nil {
			t.Fatal(err)
		}
		return ss
	}

	// Baseline: an uncancelled Run with no rule armed counts the candidate
	// checks of one run.
	base := formulate(context.Background())
	before := inj.Hits(faultinject.SiteVerify)
	results, err := base.Run(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	candidates := inj.Hits(faultinject.SiteVerify) - before
	t.Logf("baseline run: %d candidate checks over %d graphs", candidates, len(db))
	if len(results) != len(db) {
		t.Fatalf("baseline run: %d results, want %d (σ ≥ |q|)", len(results), len(db))
	}
	// With 4 workers each parked by its k-th check at the latest, a run stops
	// making checks after about 4k of them.
	const k = 16
	if candidates < 8*k {
		t.Fatalf("fixture too small for a meaningful cancellation test: %d candidate checks", candidates)
	}
	park := faultinject.Rule{Every: k, Latency: time.Hour}
	checksOf := func(run func() error) (int64, error) {
		t.Helper()
		before := inj.Hits(faultinject.SiteVerify)
		err := run()
		n := inj.Hits(faultinject.SiteVerify) - before
		if n >= candidates {
			t.Fatalf("aborted run made %d candidate checks, not fewer than the %d of a full run", n, candidates)
		}
		return n, err
	}

	// Explicit cancel, once a candidate check is parked.
	ss := formulate(context.Background())
	inj.Set(faultinject.SiteVerify, park)
	parked := inj.NotifyFired(faultinject.SiteVerify)
	ctx, cancel := context.WithCancel(context.Background())
	n, err := checksOf(func() error {
		done := make(chan error, 1)
		go func() {
			_, err := ss.Run(ctx)
			done <- err
		}()
		select {
		case <-parked:
		case err := <-done:
			t.Fatalf("run finished without reaching a parked check: %v", err)
		}
		cancel()
		return <-done
	})
	if !errors.Is(err, context.Canceled) {
		t.Fatalf("cancelled run: err = %v, want wrapped context.Canceled", err)
	}
	t.Logf("cancelled run: %d candidate checks", n)

	// A deadline far shorter than the parked latency.
	ss2 := formulate(context.Background())
	fired := inj.Fired(faultinject.SiteVerify)
	dctx, dcancel := context.WithTimeout(context.Background(), 500*time.Millisecond)
	defer dcancel()
	n, err = checksOf(func() error {
		_, err := ss2.Run(dctx)
		return err
	})
	if !errors.Is(err, context.DeadlineExceeded) {
		t.Fatalf("deadline run: err = %v, want wrapped context.DeadlineExceeded", err)
	}
	if inj.Fired(faultinject.SiteVerify) == fired {
		t.Fatal("the deadline passed before verification began")
	}
	t.Logf("deadline run: %d candidate checks", n)

	// The session remains usable after an aborted Run.
	inj.Set(faultinject.SiteVerify, faultinject.Rule{})
	if results, err := ss.Run(context.Background()); err != nil || len(results) != len(db) {
		t.Fatalf("run after cancellation: %d results, err %v", len(results), err)
	}
}

// TestCandidateCacheSharedAcrossSessions: a second session formulating the
// same query is served from the cache entries the first one published, with
// identical results and visible candcache_* metrics.
func TestCandidateCacheSharedAcrossSessions(t *testing.T) {
	db, idx := smallFixture(t)
	reg := metrics.NewRegistry()
	svc, err := newMem(db, idx, WithSigma(2), WithMetrics(reg), WithSessionTTL(0))
	if err != nil {
		t.Fatal(err)
	}
	defer svc.Close()
	if svc.CandidateCache() == nil {
		t.Fatal("cache not created by default")
	}
	ctx := context.Background()

	// Rare labels keep the query fragment out of the frequent index (a
	// frequent target is answered verification-free, bypassing the cache).
	formulateAndQuery := func() []core.Result {
		t.Helper()
		ss, err := svc.Create(ctx)
		if err != nil {
			t.Fatal(err)
		}
		a, _ := ss.AddNode("S")
		b, _ := ss.AddNode("O")
		cc, _ := ss.AddNode("N")
		for _, e := range [][2]int{{a, b}, {b, cc}} {
			out, err := ss.AddEdge(ctx, e[0], e[1])
			if err != nil {
				t.Fatal(err)
			}
			if out.NeedsChoice {
				if _, err := ss.ChooseSimilarity(ctx); err != nil {
					t.Fatal(err)
				}
			}
		}
		res, err := ss.Run(ctx)
		if err != nil {
			t.Fatal(err)
		}
		return res
	}

	first := formulateAndQuery()
	afterFirst := svc.CandidateCache().Stats()
	if afterFirst.Misses == 0 {
		t.Fatal("first session never reached the cache")
	}
	second := formulateAndQuery()
	afterSecond := svc.CandidateCache().Stats()

	if len(first) != len(second) {
		t.Fatalf("result sizes differ across sessions: %d vs %d", len(first), len(second))
	}
	for i := range first {
		if first[i] != second[i] {
			t.Fatalf("result %d differs: %+v vs %+v", i, first[i], second[i])
		}
	}
	if afterSecond.Hits+afterSecond.Coalesced <= afterFirst.Hits+afterFirst.Coalesced {
		t.Fatalf("second identical session produced no cache reuse: %+v -> %+v", afterFirst, afterSecond)
	}
	snap := reg.Snapshot().Counters
	for _, name := range []string{metrics.CounterCandHits, metrics.CounterCandMisses, metrics.CounterCandEntries, metrics.CounterCandBytes} {
		if _, ok := snap[name]; !ok {
			t.Fatalf("counter %s missing from the registry snapshot", name)
		}
	}
	if svc.CandidateCache().SizeBytes() != afterSecond.Bytes {
		t.Fatalf("bytes gauge %d != SizeBytes %d", afterSecond.Bytes, svc.CandidateCache().SizeBytes())
	}
}

// TestCandidateCacheDisabled: WithCandidateCache(0) turns the cache off and
// sessions still answer correctly (nil-cache paths).
func TestCandidateCacheDisabled(t *testing.T) {
	db, idx := smallFixture(t)
	svc, err := newMem(db, idx, WithSigma(1), WithMetrics(metrics.NewRegistry()), WithSessionTTL(0), WithCandidateCache(0))
	if err != nil {
		t.Fatal(err)
	}
	defer svc.Close()
	if svc.CandidateCache() != nil {
		t.Fatal("cache present despite WithCandidateCache(0)")
	}
	ss, err := svc.Create(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	a, _ := ss.AddNode("C")
	b, _ := ss.AddNode("N")
	out, err := ss.AddEdge(context.Background(), a, b)
	if err != nil {
		t.Fatal(err)
	}
	if out.NeedsChoice {
		if _, err := ss.ChooseSimilarity(context.Background()); err != nil {
			t.Fatal(err)
		}
	}
	if _, err := ss.Run(context.Background()); err != nil {
		t.Fatal(err)
	}
}
