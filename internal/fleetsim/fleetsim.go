// Package fleetsim drives a synthetic fleet of formulation sessions against
// a live service: N concurrent workers replaying a zipf-popular mix of
// containment and similarity queries with seeded think times, session
// churn, and interleaved store mutations. It is the load generator behind
// BenchmarkFleet — the closed-loop harness that makes "static vs adaptive
// config" comparisons reproducible.
//
// Determinism contract: every random draw (query popularity, think time,
// mutation targets) comes from a per-worker rand seeded with
// Config.Seed+workerID, so the sequence of queries each worker issues — and
// therefore Result.QueryCounts — is a pure function of the config. Latency
// quantiles are measured wall-clock and are NOT deterministic; tests assert
// on the traffic shape, benchmarks on the latencies.
package fleetsim

import (
	"context"
	"errors"
	"fmt"
	"math/rand"
	"sort"
	"sync"
	"sync/atomic"
	"time"

	"prague/internal/clock"
	"prague/internal/graph"
	"prague/internal/service"
	"prague/internal/workload"
)

// Config shapes one fleet run.
type Config struct {
	// Sessions is the number of concurrent closed-loop workers (default 4).
	Sessions int
	// QueriesPerWorker is each worker's query budget (default 10).
	QueriesPerWorker int
	// ThinkTime is the mean think time between formulation actions; each
	// pause is an exponential draw from the worker's seeded rand, slept on
	// Clock. 0 disables pausing (a saturating fleet).
	ThinkTime time.Duration
	// ZipfS is the zipf skew over the query list (must be > 1; default 1.2):
	// query 0 is the most popular.
	ZipfS float64
	// Seed drives every worker's rand (worker i uses Seed+i).
	Seed int64
	// MutateEvery interleaves one store mutation (insert then delete of a
	// clone from db) every n-th query per worker. 0 disables mutations.
	MutateEvery int
	// AbandonEvery leaves every n-th session undeleted (churn for the
	// janitor to reap via TTL). 0 deletes every session promptly.
	AbandonEvery int
	// OpenLoop switches from closed-loop (next query waits for the previous
	// one) to open-loop: each worker fires its whole budget on the arrival
	// schedule regardless of completions, modelling arrival pressure that
	// does not back off. Latency under overload is then queueing-dominated.
	OpenLoop bool
	// MaxRetries bounds how often a closed-loop worker retries one query
	// after a shed before giving up (default 50; every rejection counts
	// toward Result.Shed). The backoff between retries is deterministic —
	// the service's RetryAfter hint scaled by the retry ordinal — so retry
	// pressure consumes no random draws and QueryCounts stays a pure
	// function of the seed. Open-loop workers never retry: a shed arrival
	// is dropped, as an arrival process that does not back off would.
	MaxRetries int
	// Clock is the time source for think-time pauses (default clock.Real).
	Clock clock.Clock
}

func (c *Config) defaults() {
	if c.Sessions <= 0 {
		c.Sessions = 4
	}
	if c.QueriesPerWorker <= 0 {
		c.QueriesPerWorker = 10
	}
	if c.ZipfS <= 1 {
		c.ZipfS = 1.2
	}
	if c.Clock == nil {
		c.Clock = clock.Real{}
	}
	if c.MaxRetries <= 0 {
		c.MaxRetries = 50
	}
}

// Result aggregates one fleet run.
type Result struct {
	Queries   int64 // completed query attempts (including degraded outcomes)
	Shed      int64 // attempts rejected by admission control
	Mutations int64 // committed store mutations
	Failures  int64 // attempts failing with a non-overload error

	// SRT quantiles over completed queries (formulate + Run, wall clock).
	P50, P95, P99, Max time.Duration

	// QueryCounts maps query name to how often the fleet issued it
	// (attempted, whether or not admitted) — the zipf popularity realized.
	QueryCounts map[string]int64
}

// ShedRate returns shed/(shed+completed+failed) — the fraction of offered
// attempts the service rejected.
func (r Result) ShedRate() float64 {
	total := r.Queries + r.Shed + r.Failures
	if total == 0 {
		return 0
	}
	return float64(r.Shed) / float64(total)
}

// Run replays the fleet against svc. db is the mutation pool (clones of its
// graphs are inserted; required only when MutateEvery > 0). queries must be
// non-empty; zipf popularity follows list order.
func Run(svc *service.Service, db []*graph.Graph, queries []workload.Query, cfg Config) (Result, error) {
	cfg.defaults()
	if len(queries) == 0 {
		return Result{}, errors.New("fleetsim: no queries")
	}
	if cfg.MutateEvery > 0 && len(db) == 0 {
		return Result{}, errors.New("fleetsim: MutateEvery set with an empty mutation pool")
	}

	var (
		mu       sync.Mutex
		agg      Result
		lats     []time.Duration
		firstErr error
	)
	agg.QueryCounts = map[string]int64{}

	var wg sync.WaitGroup
	for w := 0; w < cfg.Sessions; w++ {
		wg.Add(1)
		go func(id int) {
			defer wg.Done()
			wr := newWorker(svc, db, queries, cfg, id)
			res, err := wr.run()
			mu.Lock()
			defer mu.Unlock()
			if err != nil && firstErr == nil {
				firstErr = fmt.Errorf("fleetsim: worker %d: %w", id, err)
			}
			agg.Queries += res.Queries
			agg.Shed += res.Shed
			agg.Mutations += res.Mutations
			agg.Failures += res.Failures
			for name, n := range res.QueryCounts {
				agg.QueryCounts[name] += n
			}
			lats = append(lats, wr.lats...)
		}(w)
	}
	wg.Wait()
	if firstErr != nil {
		return Result{}, firstErr
	}

	sort.Slice(lats, func(i, j int) bool { return lats[i] < lats[j] })
	if n := len(lats); n > 0 {
		agg.P50 = lats[n/2]
		agg.P95 = lats[(n*95)/100]
		agg.P99 = lats[(n*99)/100]
		agg.Max = lats[n-1]
	}
	return agg, nil
}

type worker struct {
	svc     *service.Service
	db      []*graph.Graph
	queries []workload.Query
	cfg     Config
	id      int
	r       *rand.Rand
	zipf    *rand.Zipf
	lats    []time.Duration
	done    atomic.Int64 // sessions created (drives AbandonEvery churn); open-loop attempts race on it
}

func newWorker(svc *service.Service, db []*graph.Graph, queries []workload.Query, cfg Config, id int) *worker {
	r := rand.New(rand.NewSource(cfg.Seed + int64(id)))
	return &worker{
		svc: svc, db: db, queries: queries, cfg: cfg, id: id, r: r,
		zipf: rand.NewZipf(r, cfg.ZipfS, 1, uint64(len(queries)-1)),
	}
}

func (w *worker) run() (Result, error) {
	res := Result{QueryCounts: map[string]int64{}}
	var (
		openWG  sync.WaitGroup
		openMu  sync.Mutex
		openRes []openOutcome
	)
	for q := 0; q < w.cfg.QueriesPerWorker; q++ {
		if w.cfg.MutateEvery > 0 && q > 0 && q%w.cfg.MutateEvery == 0 {
			ok, err := w.mutate()
			if err != nil {
				return res, err
			}
			if ok {
				res.Mutations++
			} else {
				res.Shed++
			}
		}
		wq := w.queries[int(w.zipf.Uint64())]
		res.QueryCounts[wq.Name]++
		if w.cfg.OpenLoop {
			// Arrival schedule: think, then fire without waiting for the
			// previous query — queueing pressure accumulates in the service.
			w.think()
			openWG.Add(1)
			go func(wq workload.Query) {
				defer openWG.Done()
				out := w.attempt(wq)
				openMu.Lock()
				openRes = append(openRes, out)
				openMu.Unlock()
			}(wq)
			continue
		}
		w.think()
		// Closed loop with backoff-retry: a shed attempt is re-issued after
		// the service's retry hint (scaled per retry), as a well-behaved
		// client would. The measured latency spans retries — under a tight
		// static admission bound the waiting shows up in the quantiles.
		start := time.Now()
		out := w.attempt(wq)
		for retry := 0; out.shed && retry < w.cfg.MaxRetries; retry++ {
			res.Shed++
			w.backoff(out.err, retry)
			out = w.attempt(wq)
		}
		out.lat = time.Since(start)
		w.record(&res, out)
	}
	if w.cfg.OpenLoop {
		openWG.Wait()
		for _, out := range openRes {
			w.record(&res, out)
		}
	}
	return res, nil
}

type openOutcome struct {
	lat  time.Duration
	shed bool
	err  error
}

func (w *worker) record(res *Result, out openOutcome) {
	switch {
	case out.shed:
		res.Shed++
	case out.err != nil:
		res.Failures++
	default:
		res.Queries++
		w.lats = append(w.lats, out.lat)
	}
}

// attempt drives one query through a fresh session: formulate every edge
// (resolving a similarity choice when prompted), Run, then delete or —
// every AbandonEvery-th time — abandon the session to the janitor.
func (w *worker) attempt(wq workload.Query) openOutcome {
	ctx := context.Background()
	start := time.Now()
	ss, err := w.svc.Create(ctx)
	if err != nil {
		return openOutcome{shed: errors.Is(err, service.ErrOverloaded), err: err}
	}
	n := w.done.Add(1)
	abandon := w.cfg.AbandonEvery > 0 && n%int64(w.cfg.AbandonEvery) == 0
	if !abandon {
		defer w.svc.Delete(ss.ID()) //nolint:errcheck // best-effort cleanup
	}

	ids := make([]int, len(wq.NodeLabels))
	for i, l := range wq.NodeLabels {
		if ids[i], err = ss.AddNode(l); err != nil {
			return openOutcome{err: err}
		}
	}
	for _, e := range wq.Edges {
		out, err := ss.AddEdge(ctx, ids[e[0]], ids[e[1]])
		if err != nil {
			return openOutcome{shed: errors.Is(err, service.ErrOverloaded), err: err}
		}
		if out.NeedsChoice {
			if _, err := ss.ChooseSimilarity(ctx); err != nil {
				return openOutcome{shed: errors.Is(err, service.ErrOverloaded), err: err}
			}
		}
	}
	if _, err := ss.RunDetailed(ctx); err != nil {
		return openOutcome{shed: errors.Is(err, service.ErrOverloaded), err: err}
	}
	return openOutcome{lat: time.Since(start)}
}

// mutate inserts a clone of a seeded-random pool graph and deletes it again,
// reporting (committed, error). A shed mutation reports (false, nil).
func (w *worker) mutate() (bool, error) {
	ctx := context.Background()
	g := w.db[w.r.Intn(len(w.db))].Clone()
	id, err := w.svc.InsertGraph(ctx, g)
	if err != nil {
		if errors.Is(err, service.ErrOverloaded) {
			return false, nil
		}
		return false, err
	}
	if err := w.svc.DeleteGraph(ctx, id); err != nil && !errors.Is(err, service.ErrOverloaded) {
		return false, err
	}
	return true, nil
}

// backoff sleeps before a retry: the service's RetryAfter hint (or 1ms)
// scaled linearly by the retry ordinal. Deterministic — no rand draws — so
// retries cannot perturb the worker's query-selection sequence.
func (w *worker) backoff(err error, retry int) {
	d := time.Millisecond
	var oe *service.OverloadError
	if errors.As(err, &oe) && oe.RetryAfter > 0 {
		d = oe.RetryAfter
	}
	w.sleep(d * time.Duration(retry+1))
}

// think pauses for an exponential draw around the configured mean, slept on
// the configured clock (a ticker, so a clock.Fake advances it in tests).
// The draw is consumed from the worker's rand even when ThinkTime is 0, so
// enabling think time does not change which queries a worker picks.
func (w *worker) think() {
	d := time.Duration(w.r.ExpFloat64() * float64(w.cfg.ThinkTime))
	if w.cfg.ThinkTime <= 0 {
		return
	}
	w.sleep(d)
}

// sleep pauses for d on the configured clock via a one-shot ticker.
func (w *worker) sleep(d time.Duration) {
	if d <= 0 {
		return
	}
	t := w.cfg.Clock.NewTicker(d)
	defer t.Stop()
	<-t.C()
}
