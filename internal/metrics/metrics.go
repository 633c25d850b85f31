// Package metrics provides the observability layer for a PRAGUE service:
// lock-free atomic counters and exponential-bucket latency histograms,
// collected in a Registry whose Snapshot is JSON-marshalable. The layer is
// deliberately dependency-free (no Prometheus client in the container); the
// snapshot shape is close enough that an exporter is a thin adapter.
//
// Metric names used across the system are declared here so that the service,
// the session simulator, and the command-line tools agree on them.
package metrics

import (
	"encoding/json"
	"fmt"
	"io"
	"math"
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
	CounterCandHits      = "candcache_hits"      // lookups served from a resident entry
	CounterCandMisses    = "candcache_misses"    // lookups that had to compute (singleflight leaders)
	CounterCandCoalesced = "candcache_coalesced" // waiters served by another session's computation
	CounterCandEvictions = "candcache_evictions" // entries dropped by the byte-budgeted LRU
	CounterCandEntries   = "candcache_entries"   // resident entries (gauge-like)
	CounterCandBytes     = "candcache_bytes"     // resident bytes (gauge-like)

	// Tracing self-observability (see prague/internal/trace). The journal
	// length is a level gauge; the other two count events.
	CounterTraceDropped        = "trace_dropped_spans"     // spans discarded by per-tree caps
	CounterTraceJournalEvicted = "trace_journal_evictions" // slow-journal trees displaced by slower ones
	CounterTraceJournalLen     = "trace_journal_len"       // resident slow-journal trees (gauge-like)

	// Robustness counters (overload protection and the degradation ladder).
	// The degrade_stage_* family is a histogram-by-counter over the ladder's
	// discrete stages: one counter per stage, incremented per Run.
	CounterOverloadShed     = "overload_shed_total"      // actions rejected by admission control
	CounterWorkerPanics     = "worker_panics_total"      // predicate panics recovered by the pool
	CounterRunsTruncated    = "runs_truncated_total"     // Run outcomes flagged Truncated
	CounterDegradeFull      = "degrade_stage_full"       // Runs answered exactly, inside budget
	CounterDegradePartial   = "degrade_stage_partial"    // Runs answered with a verified subset
	CounterDegradeSimilar   = "degrade_stage_similarity" // Runs answered by similarity fallback
	CounterDegradeCached    = "degrade_stage_cached"     // Runs answered from last-known-good
	CounterBudgetExhausted  = "run_budget_exhausted"     // Runs with nothing to serve on any rung
	CounterVerifyFaultTotal = "verify_faults_total"      // candidate checks dropped by faults

	// Shard topology gauges (set once at service construction).
	CounterShardCount     = "shard_count"      // number of store shards (1 = monolithic)
	CounterShardGraphsMin = "shard_graphs_min" // smallest shard's graph count
	CounterShardGraphsMax = "shard_graphs_max" // largest shard's graph count

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

	// Adaptive verify-prefilter counters (core chooser; see
	// internal/core/chooser.go). One arm counter bumps per chooser decision;
	// pruned counts candidates removed before reaching the VF2 verifier.
	CounterFilterArmProbe     = "filter_arm_probe"     // decisions resolved to the bare probe
	CounterFilterArmGrafil    = "filter_arm_grafil"    // decisions resolved to count filtering
	CounterFilterArmSignature = "filter_arm_signature" // decisions resolved to signature pruning
	CounterFilterPruned       = "filter_pruned_total"  // candidates pruned before verification

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

// histogram buckets: decades from 1µs to 10s, plus an overflow bucket.
// bucketBounds[i] is the inclusive upper bound of bucket i.
const numBounds = 8

var bucketBounds = [numBounds]time.Duration{
	time.Microsecond,
	10 * time.Microsecond,
	100 * time.Microsecond,
	time.Millisecond,
	10 * time.Millisecond,
	100 * time.Millisecond,
	time.Second,
	10 * time.Second,
}

// Histogram is a fixed-bucket latency histogram with atomic updates. The
// zero value is ready to use.
type Histogram struct {
	buckets [numBounds + 1]atomic.Int64
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

func (h *Histogram) snapshot() HistogramSnapshot {
	// Every field is loaded atomically, and the observation count used for
	// quantile estimation is derived from the bucket loads themselves rather
	// than the separate count field: Observe updates buckets before count,
	// so a count loaded independently could exceed the bucket sum captured
	// here and push the quantile rank past the captured distribution. The
	// derived n keeps each snapshot internally consistent even while
	// concurrent Observes land between the loads.
	var counts [numBounds + 1]int64
	var n int64
	for i := range counts {
		counts[i] = h.buckets[i].Load()
		n += counts[i]
	}
	s := HistogramSnapshot{
		Count: n,
		SumMS: float64(h.sumNS.Load()) / 1e6,
		MaxMS: float64(h.maxNS.Load()) / 1e6,
	}
	if n == 0 {
		return s
	}
	s.MeanMS = s.SumMS / float64(n)
	s.P50MS = quantile(counts[:], n, 0.50)
	s.P95MS = quantile(counts[:], n, 0.95)
	s.Buckets = map[string]int64{}
	for i, c := range counts {
		if c > 0 {
			s.Buckets[bucketLabel(i)] = c
		}
	}
	return s
}

// quantile returns the q-quantile in milliseconds, estimated by linear
// interpolation within the containing bucket (the usual Prometheus
// histogram_quantile estimate).
func quantile(counts []int64, total int64, q float64) float64 {
	rank := q * float64(total)
	var seen int64
	for i, c := range counts {
		if c == 0 {
			continue
		}
		if float64(seen+c) >= rank {
			lo := 0.0
			if i > 0 {
				lo = float64(bucketBounds[i-1]) / 1e6
			}
			hi := lo * 10
			if i < numBounds {
				hi = float64(bucketBounds[i]) / 1e6
			} else if hi == 0 {
				hi = math.Inf(1)
			}
			frac := (rank - float64(seen)) / float64(c)
			if frac < 0 {
				frac = 0
			} else if frac > 1 {
				frac = 1
			}
			return lo + (hi-lo)*frac
		}
		seen += c
	}
	return float64(bucketBounds[numBounds-1]) / 1e6
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
