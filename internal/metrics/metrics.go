// Package metrics provides the observability layer for a PRAGUE service:
// lock-free atomic counters and 1-2-5 bucket latency histograms, collected
// in a Registry whose Snapshot is JSON-marshalable. The layer is
// deliberately dependency-free (no Prometheus client in the container); the
// snapshot shape is close enough that an exporter is a thin adapter.
//
// Every instrument is cumulative. A histogram's Counts taken a window apart
// subtract to the window's own distribution, which is how prague/internal/slo
// keeps its rolling windows without a second set of buckets.
//
// Metric names used across the system are declared here so that the service,
// the session simulator, and the command-line tools agree on them.
package metrics

import (
	"encoding/json"
	"fmt"
	"io"
	"sort"
	"sync"
	"sync/atomic"
	"time"
)

// Canonical metric names. Counters count events (or, for *Active, a level);
// histograms observe durations.
const (
	// Counters.
	CounterSessionsActive  = "sessions_active"  // currently live sessions (gauge-like)
	CounterSessionsCreated = "sessions_created" // sessions ever created
	CounterSessionsEvicted = "sessions_evicted" // sessions reaped by the idle janitor
	CounterSessionsDeleted = "sessions_deleted" // sessions explicitly deleted
	CounterStepsEvaluated  = "steps_evaluated"  // formulation steps (edge add/delete) evaluated
	CounterRuns            = "runs_executed"    // Run actions completed
	CounterVerifyTasks     = "verify_tasks"     // candidate verifications fanned out to the pool
	CounterVerifyBatches   = "verify_batches"   // verification batches submitted to the pool

	// Candidate-cache counters (see prague/internal/candcache). The last two
	// are level gauges tracking resident entries and bytes.
	CounterCandHits      = "candcache_hits"          // lookups served from a resident entry
	CounterCandMisses    = "candcache_misses"        // lookups that had to compute (singleflight leaders)
	CounterCandCoalesced = "candcache_coalesced"     // waiters served by another session's computation
	CounterCandCarried   = "candcache_carried_total" // entries rolled forward over mutations instead of recomputed
	CounterCandEvictions = "candcache_evictions"     // entries dropped by the byte-budgeted LRU
	CounterCandEntries   = "candcache_entries"       // resident entries (gauge-like)
	CounterCandBytes     = "candcache_bytes"         // resident bytes (gauge-like)

	// Tracing self-observability (see prague/internal/trace). The journal
	// length is a level gauge; the other two count events.
	CounterTraceDropped        = "trace_dropped_spans"     // spans discarded by per-tree caps
	CounterTraceJournalEvicted = "trace_journal_evictions" // slow-journal trees displaced by slower ones
	CounterTraceJournalLen     = "trace_journal_len"       // resident slow-journal trees (gauge-like)

	// Robustness counters (overload protection and the degradation ladder).
	// The degrade_stage_* family is a histogram-by-counter over the ladder's
	// discrete stages: one counter per stage, incremented per Run.
	CounterOverloadShed     = "overload_shed_total"      // actions rejected by admission control
	CounterAdmitted         = "overload_admitted_total"  // actions admitted past admission control
	CounterWorkerPanics     = "worker_panics_total"      // predicate panics recovered by the pool
	CounterRunsTruncated    = "runs_truncated_total"     // Run outcomes flagged Truncated
	CounterDegradeFull      = "degrade_stage_full"       // Runs answered exactly, inside budget
	CounterDegradePartial   = "degrade_stage_partial"    // Runs answered with a verified subset
	CounterDegradeSimilar   = "degrade_stage_similarity" // Runs answered by similarity fallback
	CounterDegradeCached    = "degrade_stage_cached"     // Runs answered from last-known-good
	CounterBudgetExhausted  = "run_budget_exhausted"     // Runs with nothing to serve on any rung
	CounterVerifyFaultTotal = "verify_faults_total"      // candidate checks dropped by faults

	// Shard topology gauge (set once at service construction).
	CounterShardCount = "shard_count" // number of store shards (1 = monolithic)

	// Remote shard RPC counters (see prague/internal/rpcstore). Calls count
	// logical shard calls; attempts count wire attempts (so attempts - calls
	// is the retry+hedge overhead). The health pair is gauge-like: endpoints
	// currently considered healthy / known, refreshed after every call.
	CounterShardRPCCalls      = "shard_rpc_calls"         // logical remote calls: one per replica group per probe batch
	CounterShardRPCAttempts   = "shard_rpc_attempts"      // wire attempts (first tries + retries + hedges)
	CounterShardRPCRetries    = "shard_rpc_retries"       // backoff retry rounds taken
	CounterShardRPCHedged     = "shard_rpc_hedged"        // hedge requests fired to a replica
	CounterShardRPCHedgeWins  = "shard_rpc_hedge_wins"    // calls answered by the hedge, not the primary
	CounterShardRPCErrors     = "shard_rpc_errors"        // calls that failed every endpoint (typed degradation)
	CounterShardRPCStaleEpoch = "shard_rpc_stale_epoch"   // replies rejected by the epoch-consistency check
	CounterShardEndpointsUp   = "shard_endpoints_healthy" // endpoints whose last call succeeded (gauge-like)
	CounterShardEndpointsAll  = "shard_endpoints_total"   // endpoints in the dialed topology (gauge-like)

	// Verify-prefilter counters (internal/core/chooser.go). One arm counter
	// bumps per prefilter decision; pruned counts candidates removed before
	// reaching the VF2 verifier.
	CounterFilterArmProbe  = "filter_arm_probe"    // decisions that left the list to VF2
	CounterFilterArmGrafil = "filter_arm_grafil"   // decisions resolved to count filtering
	CounterFilterPruned    = "filter_pruned_total" // candidates pruned before verification

	// Online mutation counters (Service.InsertGraph / Service.DeleteGraph).
	// The epoch
	// is a level gauge: the store's current epoch after the last mutation.
	CounterGraphsInserted = "graphs_inserted" // data graphs inserted online
	CounterGraphsDeleted  = "graphs_deleted"  // data graphs deleted online
	CounterStoreEpoch     = "store_epoch"     // current store epoch (gauge-like)

	// SLO telemetry names (see prague/internal/slo): violation onsets
	// observed by the tracker.
	CounterSLOViolations = "slo_violations_total"

	// Histograms (durations).
	HistSpigBuild    = "spig_build"   // SPIG construction per formulation step
	HistStepEval     = "step_eval"    // candidate maintenance per formulation step
	HistSRT          = "srt"          // system response time (work after Run)
	HistModification = "modification" // query-modification handling time
	HistMutation     = "mutation"     // store mutation latency (insert or delete)

	// Per-stage SRT: each Run's SRT is also observed into the histogram of
	// its degradation-ladder outcome, so "p99 of the degraded answers" reads
	// apart from "p99 of the exact answers".
	HistSRTExact      = "srt_stage_exact"      // full exact containment answer
	HistSRTTruncated  = "srt_stage_truncated"  // verified-subset (partial/truncated) answer
	HistSRTSimilarity = "srt_stage_similarity" // similarity-bound fallback answer
	HistSRTCached     = "srt_stage_cached"     // last-known-good cached answer

	// HistPhasePrefix prefixes the per-phase histograms fed by trace spans:
	// one histogram per span kind (phase_spig_build, phase_verify_batch, ...)
	// with no bookkeeping besides the spans themselves.
	HistPhasePrefix = "phase_"
)

// Counter is an atomic event counter. Negative deltas are allowed so a
// counter can double as a level gauge (e.g. sessions_active).
type Counter struct {
	v atomic.Int64
}

// Inc adds one.
func (c *Counter) Inc() { c.v.Add(1) }

// Add adds delta (which may be negative).
func (c *Counter) Add(delta int64) { c.v.Add(delta) }

// Set overwrites the value, turning the counter into a plain gauge (used for
// topology facts fixed at construction, e.g. shard_count).
func (c *Counter) Set(v int64) { c.v.Store(v) }

// Value returns the current count.
func (c *Counter) Value() int64 { return c.v.Load() }

// Histogram buckets: 1-2-5 per decade from 1µs to 10s, plus an overflow
// bucket. bucketBounds[i] is the inclusive upper bound of bucket i. A
// windowed p99 is compared against a target, so a containing bucket may be
// at most 2.5x wide.
var bucketBounds = [...]time.Duration{
	time.Microsecond, 2 * time.Microsecond, 5 * time.Microsecond,
	10 * time.Microsecond, 20 * time.Microsecond, 50 * time.Microsecond,
	100 * time.Microsecond, 200 * time.Microsecond, 500 * time.Microsecond,
	time.Millisecond, 2 * time.Millisecond, 5 * time.Millisecond,
	10 * time.Millisecond, 20 * time.Millisecond, 50 * time.Millisecond,
	100 * time.Millisecond, 200 * time.Millisecond, 500 * time.Millisecond,
	time.Second, 2 * time.Second, 5 * time.Second,
	10 * time.Second,
}

const (
	numBounds  = len(bucketBounds)
	numBuckets = numBounds + 1 // the overflow bucket last
)

// Histogram is a fixed-bucket latency histogram with atomic updates. The
// zero value is ready to use.
type Histogram struct {
	buckets [numBuckets]atomic.Int64
	count   atomic.Int64
	sumNS   atomic.Int64
	maxNS   atomic.Int64
}

// Observe records one duration.
func (h *Histogram) Observe(d time.Duration) {
	if d < 0 {
		d = 0
	}
	i := sort.Search(numBounds, func(i int) bool { return d <= bucketBounds[i] })
	h.buckets[i].Add(1)
	h.count.Add(1)
	h.sumNS.Add(int64(d))
	for {
		cur := h.maxNS.Load()
		if int64(d) <= cur || h.maxNS.CompareAndSwap(cur, int64(d)) {
			return
		}
	}
}

// Count returns the number of observations.
func (h *Histogram) Count() int64 { return h.count.Load() }

// Counts is a histogram's cumulative state at one instant: the bucket
// vector, the duration sum and the maximum.
type Counts struct {
	Buckets [numBuckets]int64
	SumNS   int64
	MaxNS   int64
}

// Counts loads the cumulative state. Each field is loaded atomically; the
// observation count is the bucket sum (N), not the separate count field:
// Observe updates buckets before count, so a count loaded independently
// could exceed the bucket sum captured here and push a quantile rank past
// the captured distribution. Deriving it keeps each Counts internally
// consistent while concurrent Observes land between the loads.
func (h *Histogram) Counts() Counts {
	var c Counts
	for i := range c.Buckets {
		c.Buckets[i] = h.buckets[i].Load()
	}
	c.SumNS = h.sumNS.Load()
	c.MaxNS = h.maxNS.Load()
	return c
}

// N returns the number of observations.
func (c Counts) N() int64 {
	var n int64
	for _, b := range c.Buckets {
		n += b
	}
	return n
}

// Sub returns what was observed between old and c: the bucket and sum
// deltas. A maximum cannot be subtracted, so the result's MaxNS is c's
// maximum capped at the upper bound of the highest non-empty delta bucket —
// within one bucket of the true maximum in between, and 0 when nothing was
// observed.
func (c Counts) Sub(old Counts) Counts {
	d := Counts{SumNS: c.SumNS - old.SumNS}
	top := -1
	for i := range c.Buckets {
		if d.Buckets[i] = c.Buckets[i] - old.Buckets[i]; d.Buckets[i] > 0 {
			top = i
		}
	}
	switch {
	case top < 0:
	case top < numBounds:
		d.MaxNS = min(c.MaxNS, int64(bucketBounds[top]))
	default:
		d.MaxNS = c.MaxNS
	}
	return d
}

// Quantile estimates the q-quantile by linear interpolation within the
// containing bucket (the usual Prometheus histogram_quantile estimate),
// clamped to the maximum: interpolation can overshoot it when the tail
// bucket is sparse. Zero with no observations.
func (c Counts) Quantile(q float64) time.Duration {
	n := c.N()
	if n == 0 {
		return 0
	}
	rank := q * float64(n)
	var seen int64
	for i, b := range c.Buckets {
		if b == 0 {
			continue
		}
		if float64(seen+b) >= rank {
			lo := time.Duration(0)
			if i > 0 {
				lo = bucketBounds[i-1]
			}
			hi := lo * 10
			if i < numBounds {
				hi = bucketBounds[i]
			}
			frac := min(max((rank-float64(seen))/float64(b), 0), 1)
			return min(lo+time.Duration(float64(hi-lo)*frac), time.Duration(c.MaxNS))
		}
		seen += b
	}
	return time.Duration(c.MaxNS)
}

// HistogramSnapshot is the JSON form of a histogram at a point in time.
type HistogramSnapshot struct {
	Count   int64            `json:"count"`
	SumMS   float64          `json:"sum_ms"`
	MeanMS  float64          `json:"mean_ms"`
	MaxMS   float64          `json:"max_ms"`
	P50MS   float64          `json:"p50_ms"`
	P95MS   float64          `json:"p95_ms"`
	Buckets map[string]int64 `json:"buckets,omitempty"` // upper-bound label -> count
}

func bucketLabel(i int) string {
	if i == numBounds {
		return "+inf"
	}
	return bucketBounds[i].String()
}

func ms(d time.Duration) float64 { return float64(d) / 1e6 }

func (h *Histogram) snapshot() HistogramSnapshot {
	c := h.Counts()
	s := HistogramSnapshot{
		Count: c.N(),
		SumMS: ms(time.Duration(c.SumNS)),
		MaxMS: ms(time.Duration(c.MaxNS)),
	}
	if s.Count == 0 {
		return s
	}
	s.MeanMS = s.SumMS / float64(s.Count)
	s.P50MS = ms(c.Quantile(0.50))
	s.P95MS = ms(c.Quantile(0.95))
	s.Buckets = map[string]int64{}
	for i, n := range c.Buckets {
		if n > 0 {
			s.Buckets[bucketLabel(i)] = n
		}
	}
	return s
}

// Registry is a named collection of counters and histograms. Get-or-create
// lookups take a short lock; the returned instruments update atomically, so
// hot paths should hold on to them rather than re-looking them up. The zero
// value is ready to use.
type Registry struct {
	mu         sync.RWMutex
	counters   map[string]*Counter
	histograms map[string]*Histogram
}

// NewRegistry returns an empty registry.
func NewRegistry() *Registry {
	return &Registry{
		counters:   map[string]*Counter{},
		histograms: map[string]*Histogram{},
	}
}

// Default is the process-wide registry used when no explicit registry is
// configured (mirroring expvar's package-level convention).
var Default = NewRegistry()

// Counter returns the named counter, creating it on first use.
func (r *Registry) Counter(name string) *Counter {
	r.mu.RLock()
	c := r.counters[name]
	r.mu.RUnlock()
	if c != nil {
		return c
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	if r.counters == nil {
		r.counters = map[string]*Counter{}
	}
	if c = r.counters[name]; c == nil {
		c = &Counter{}
		r.counters[name] = c
	}
	return c
}

// Histogram returns the named histogram, creating it on first use.
func (r *Registry) Histogram(name string) *Histogram {
	r.mu.RLock()
	h := r.histograms[name]
	r.mu.RUnlock()
	if h != nil {
		return h
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	if r.histograms == nil {
		r.histograms = map[string]*Histogram{}
	}
	if h = r.histograms[name]; h == nil {
		h = &Histogram{}
		r.histograms[name] = h
	}
	return h
}

// Snapshot is a point-in-time, JSON-marshalable view of a registry.
type Snapshot struct {
	Counters   map[string]int64             `json:"counters"`
	Histograms map[string]HistogramSnapshot `json:"histograms"`
}

// Snapshot captures all instruments. Counters and histograms update
// concurrently with the capture; each instrument is internally consistent.
func (r *Registry) Snapshot() Snapshot {
	r.mu.RLock()
	defer r.mu.RUnlock()
	s := Snapshot{
		Counters:   make(map[string]int64, len(r.counters)),
		Histograms: make(map[string]HistogramSnapshot, len(r.histograms)),
	}
	for name, c := range r.counters {
		s.Counters[name] = c.Value()
	}
	for name, h := range r.histograms {
		s.Histograms[name] = h.snapshot()
	}
	return s
}

// WriteJSON writes the snapshot as indented JSON.
func (s Snapshot) WriteJSON(w io.Writer) error {
	b, err := json.MarshalIndent(s, "", "  ")
	if err != nil {
		return fmt.Errorf("metrics: marshal snapshot: %w", err)
	}
	b = append(b, '\n')
	_, err = w.Write(b)
	return err
}
