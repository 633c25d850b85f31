// Package trace is PRAGUE's zero-dependency structured tracing subsystem:
// a per-action span tree recording where each GUI-latency window and each
// Run's SRT actually goes — SPIG construction, canonical-code computation,
// index probes, candidate-cache hits/misses/singleflight waits, workpool
// queueing, per-candidate VF2 verification, and similarity degradation.
//
// Spans travel through context.Context, so the core engine, the SPIG
// builder, the candidate cache, and the worker pool instrument themselves
// without importing each other (trace imports only the standard library and
// prague/internal/metrics). When tracing is disabled the whole subsystem
// collapses to an atomic nil-check: StartRoot returns a nil *Span, every
// method on a nil *Span is a no-op, and SpanFromContext on an
// un-instrumented context is a single Value lookup miss.
//
// A Tracer additionally maintains a bounded slow-action journal: the N
// slowest finished root spans (full trees) at or above the configured slow
// threshold, queryable for post-hoc "why was that click slow" debugging.
// The tracer observes itself through the metrics registry it feeds:
// trace_dropped_spans counts spans discarded by the per-tree caps, and
// trace_journal_len / trace_journal_evictions make the journal's bounded
// memory verifiable from the outside.
package trace

import (
	"context"
	"sort"
	"sync"
	"sync/atomic"
	"time"

	"prague/internal/metrics"
)

// Kind identifies what a span measures. Root kinds mirror the user actions
// of the paper's Algorithm 1; child kinds mirror the evaluation phases.
type Kind uint8

const (
	// Root kinds (one per user action).
	KindAddEdge    Kind = iota // New action: draw an edge
	KindDeleteEdge             // Modify action: delete an edge
	KindRun                    // Run action: final evaluation (the SRT)
	KindChooseSim              // SimQuery action: continue approximately

	// Child kinds (evaluation phases).
	KindSpigBuild    // Algorithm 2: SPIG construction for the new edge
	KindCanonical    // minimum-DFS canonical code computation
	KindIndexProbe   // A²F/A²I lookups and FSG-list intersection
	KindStepEval     // candidate-set maintenance after an action
	KindCandFetch    // shared candidate-cache lookup (hit/miss/coalesced)
	KindVerifyBatch  // one verification fan-out through the workpool
	KindVerifyCand   // one candidate's VF2 (or SimVerify) check
	KindSimilarEval  // Algorithm 5: similarity result generation
	KindDegrade      // transparent containment→similarity degradation
	KindFilterChoose // adaptive verify-prefilter arm selection + pruning
	KindShardRPC     // one replica-group call (scatter-gather leg, incl. retries/hedges)

	// Synthetic kinds (recorded via Tracer.RecordEvent, not span trees).
	KindSLOViolation // one SLO-violating tracker tick (slo package)

	numKinds
)

var kindNames = [numKinds]string{
	KindAddEdge:      "add_edge",
	KindDeleteEdge:   "delete_edge",
	KindRun:          "run",
	KindChooseSim:    "choose_similarity",
	KindSpigBuild:    "spig_build",
	KindCanonical:    "canonical_code",
	KindIndexProbe:   "index_probe",
	KindStepEval:     "step_eval",
	KindCandFetch:    "cand_fetch",
	KindVerifyBatch:  "verify_batch",
	KindVerifyCand:   "verify_candidate",
	KindSimilarEval:  "similar_eval",
	KindDegrade:      "degrade_similarity",
	KindFilterChoose: "filter_choose",
	KindShardRPC:     "shard_rpc",
	KindSLOViolation: "slo_violation",
}

func (k Kind) String() string {
	if int(k) < len(kindNames) {
		return kindNames[k]
	}
	return "unknown"
}

// SpanData is the serializable form of a finished span: what /trace/slow
// returns and what the JSON round-trip fuzz target exercises. Durations and
// start offsets are microseconds; StartUS is relative to the root span's
// start. A SpanData tree is immutable once its root span has ended.
type SpanData struct {
	Kind     string            `json:"kind"`
	StartUS  int64             `json:"start_us"`
	DurUS    int64             `json:"dur_us"`
	Attrs    map[string]string `json:"attrs,omitempty"`
	Counts   map[string]int64  `json:"counts,omitempty"`
	Dropped  int64             `json:"dropped,omitempty"`
	Children []*SpanData       `json:"children,omitempty"`
}

// Walk visits d and every descendant in depth-first order.
func (d *SpanData) Walk(fn func(*SpanData)) {
	if d == nil {
		return
	}
	fn(d)
	for _, c := range d.Children {
		c.Walk(fn)
	}
}

// NumSpans returns the tree size.
func (d *SpanData) NumSpans() int {
	n := 0
	d.Walk(func(*SpanData) { n++ })
	return n
}

// Span is one in-progress measurement. A nil *Span is valid: every method
// no-ops, which is how the disabled-tracing fast path stays branch-cheap at
// every instrumentation site.
type Span struct {
	tracer *Tracer
	root   *Span
	parent *Span
	start  time.Time

	mu    sync.Mutex
	data  SpanData
	ended bool

	// Root-only: remaining span budget for the whole tree and the count of
	// spans dropped once it (or a parent's child cap) was exhausted.
	budget  atomic.Int64
	dropped atomic.Int64
}

// Tracer owns tracing state for one service: the enabled switch, the slow
// journal, per-tree caps, and the metrics registry that receives per-phase
// histograms and the tracer's self-observability counters.
type Tracer struct {
	enabled atomic.Bool
	slowNS  atomic.Int64

	maxChildren int
	maxSpans    int64
	journalCap  int

	reg     *metrics.Registry
	dropped *metrics.Counter
	jevict  *metrics.Counter
	jlen    *metrics.Counter

	// obs, when set, observes every finished span (kind, duration) as root
	// trees finalize — the bridge feeding trace-only phases (index probes,
	// cache fetches, verify batches) into the SLO rolling windows without
	// the two packages importing each other's hot paths. Set it once right
	// after New, before the tracer is shared; read without synchronization.
	obs func(kind string, d time.Duration)

	mu      sync.Mutex
	journal []*SpanData // sorted by DurUS ascending; len ≤ journalCap
}

// Default caps: generous for interactive queries (tens of spans per action)
// while bounding pathological fan-outs.
const (
	DefaultJournalSize = 32
	DefaultMaxChildren = 128
	DefaultMaxSpans    = 1024
)

// Options configures a Tracer.
type Options struct {
	// Enabled starts the tracer recording; SetEnabled flips it at runtime.
	Enabled bool
	// SlowThreshold admits finished root spans with duration ≥ the
	// threshold into the slow journal (0 admits every root span).
	SlowThreshold time.Duration
	// JournalSize bounds the slow journal (default DefaultJournalSize).
	JournalSize int
	// MaxChildren caps direct children per span (default DefaultMaxChildren).
	MaxChildren int
	// MaxSpans caps total spans per tree (default DefaultMaxSpans).
	MaxSpans int
	// Registry receives phase_* histograms and trace_* counters (nil keeps
	// the tracer standalone).
	Registry *metrics.Registry
}

// New creates a tracer. The zero Options value yields a disabled tracer
// with default caps and no metrics feed.
func New(opt Options) *Tracer {
	if opt.JournalSize <= 0 {
		opt.JournalSize = DefaultJournalSize
	}
	if opt.MaxChildren <= 0 {
		opt.MaxChildren = DefaultMaxChildren
	}
	if opt.MaxSpans <= 0 {
		opt.MaxSpans = DefaultMaxSpans
	}
	counter := func(name string) *metrics.Counter {
		if opt.Registry == nil {
			return &metrics.Counter{}
		}
		return opt.Registry.Counter(name)
	}
	t := &Tracer{
		maxChildren: opt.MaxChildren,
		maxSpans:    int64(opt.MaxSpans),
		journalCap:  opt.JournalSize,
		reg:         opt.Registry,
		dropped:     counter(metrics.CounterTraceDropped),
		jevict:      counter(metrics.CounterTraceJournalEvicted),
		jlen:        counter(metrics.CounterTraceJournalLen),
	}
	t.enabled.Store(opt.Enabled)
	t.slowNS.Store(int64(opt.SlowThreshold))
	return t
}

// Enabled reports whether the tracer records spans. Nil-safe.
func (t *Tracer) Enabled() bool { return t != nil && t.enabled.Load() }

// SetEnabled flips recording at runtime. Nil-safe.
func (t *Tracer) SetEnabled(on bool) {
	if t != nil {
		t.enabled.Store(on)
	}
}

// SetSlowThreshold changes the journal admission threshold. Nil-safe.
func (t *Tracer) SetSlowThreshold(d time.Duration) {
	if t != nil {
		t.slowNS.Store(int64(d))
	}
}

// SetSpanObserver registers fn to observe every finished span (kind and
// duration) when its root tree finalizes. Publication rule as with
// workpool.Pool.OnBatch: set once right after New, before the tracer is
// shared. Nil-safe.
func (t *Tracer) SetSpanObserver(fn func(kind string, d time.Duration)) {
	if t != nil {
		t.obs = fn
	}
}

// RecordEvent records a synthetic, childless root span directly into the
// finalization pipeline (phase histogram, span observer, slow journal) — for
// events that are not user actions and have no natural start/end call sites,
// like SLO violations. No-op on a nil or disabled tracer.
func (t *Tracer) RecordEvent(kind Kind, d time.Duration, attrs map[string]string, counts map[string]int64) {
	if t == nil || !t.enabled.Load() {
		return
	}
	if d < 0 {
		d = 0
	}
	t.finishRoot(&SpanData{
		Kind:   kind.String(),
		DurUS:  d.Microseconds(),
		Attrs:  attrs,
		Counts: counts,
	})
}

// StartRoot begins a new span tree for one user action and returns a
// context carrying the span. On a nil or disabled tracer it returns the
// context unchanged and a nil span — the instrumentation fast path.
func (t *Tracer) StartRoot(ctx context.Context, kind Kind) (context.Context, *Span) {
	if t == nil || !t.enabled.Load() {
		return ctx, nil
	}
	sp := &Span{tracer: t, start: time.Now(), data: SpanData{Kind: kind.String()}}
	sp.root = sp
	sp.budget.Store(t.maxSpans - 1) // the root itself consumed one
	return ContextWithSpan(ctx, sp), sp
}

type ctxKey struct{}

// ContextWithSpan returns a context carrying sp; a nil span returns ctx
// unchanged.
func ContextWithSpan(ctx context.Context, sp *Span) context.Context {
	if sp == nil {
		return ctx
	}
	return context.WithValue(ctx, ctxKey{}, sp)
}

// SpanFromContext returns the span carried by ctx, or nil.
func SpanFromContext(ctx context.Context) *Span {
	sp, _ := ctx.Value(ctxKey{}).(*Span)
	return sp
}

// StartChild begins a child of the span carried by ctx and returns a
// context carrying the child. Without a span in ctx (tracing disabled, or
// an un-instrumented caller) it returns (ctx, nil).
func StartChild(ctx context.Context, kind Kind) (context.Context, *Span) {
	sp := SpanFromContext(ctx).Child(kind)
	if sp == nil {
		return ctx, nil
	}
	return ContextWithSpan(ctx, sp), sp
}

// Child begins a child span. Nil-safe; returns nil when the tree's span
// budget or this span's child cap is exhausted (counted as dropped).
func (s *Span) Child(kind Kind) *Span {
	if s == nil {
		return nil
	}
	if s.root.budget.Add(-1) < 0 {
		s.root.dropped.Add(1)
		s.tracer.dropped.Inc()
		return nil
	}
	s.mu.Lock()
	full := len(s.data.Children) >= s.tracer.maxChildren
	s.mu.Unlock()
	if full {
		s.root.dropped.Add(1)
		s.tracer.dropped.Inc()
		return nil
	}
	return &Span{
		tracer: s.tracer,
		root:   s.root,
		parent: s,
		start:  time.Now(),
		data:   SpanData{Kind: kind.String()},
	}
}

// SetAttr attaches a string attribute. Nil-safe.
func (s *Span) SetAttr(key, val string) {
	if s == nil {
		return
	}
	s.mu.Lock()
	if s.data.Attrs == nil {
		s.data.Attrs = map[string]string{}
	}
	s.data.Attrs[key] = val
	s.mu.Unlock()
}

// Add accumulates a named counter on the span. Nil-safe.
func (s *Span) Add(key string, delta int64) {
	if s == nil {
		return
	}
	s.mu.Lock()
	if s.data.Counts == nil {
		s.data.Counts = map[string]int64{}
	}
	s.data.Counts[key] += delta
	s.mu.Unlock()
}

// Record attaches an already-measured phase as a completed child span with
// explicit duration d and counter value n under key — for callers that
// accumulate timings in a tight loop (e.g. canonical-code computation
// inside SPIG construction) where one span per iteration would be waste.
// Nil-safe.
func (s *Span) Record(kind Kind, d time.Duration, key string, n int64) {
	c := s.Child(kind)
	if c == nil {
		return
	}
	c.start = time.Now().Add(-d)
	if key != "" {
		c.Add(key, n)
	}
	c.End()
}

// End finishes the span, attaching it to its parent; ending the root
// finalizes the tree (phase histograms, slow journal). End is idempotent;
// ending children after their parent ended loses them by design. Nil-safe.
func (s *Span) End() {
	if s == nil {
		return
	}
	s.mu.Lock()
	if s.ended {
		s.mu.Unlock()
		return
	}
	s.ended = true
	s.data.StartUS = s.start.Sub(s.root.start).Microseconds()
	s.data.DurUS = time.Since(s.start).Microseconds()
	s.mu.Unlock()

	if s.parent == nil {
		s.data.Dropped = s.dropped.Load()
		s.tracer.finishRoot(&s.data)
		return
	}
	s.parent.mu.Lock()
	if !s.parent.ended && len(s.parent.data.Children) < s.tracer.maxChildren {
		s.parent.data.Children = append(s.parent.data.Children, &s.data)
	}
	s.parent.mu.Unlock()
}

// Data returns the span's serializable tree; call it only after End (on a
// live span the tree is still mutating). Nil-safe (returns nil).
func (s *Span) Data() *SpanData {
	if s == nil {
		return nil
	}
	return &s.data
}

// finishRoot feeds the per-phase histograms and admits the tree into the
// slow journal.
func (t *Tracer) finishRoot(d *SpanData) {
	if t.reg != nil || t.obs != nil {
		d.Walk(func(s *SpanData) {
			dur := time.Duration(s.DurUS) * time.Microsecond
			if t.reg != nil {
				t.reg.Histogram(metrics.HistPhasePrefix + s.Kind).Observe(dur)
			}
			if t.obs != nil {
				t.obs(s.Kind, dur)
			}
		})
	}
	if d.DurUS < t.slowNS.Load()/1e3 {
		return
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	i := sort.Search(len(t.journal), func(i int) bool { return t.journal[i].DurUS >= d.DurUS })
	if len(t.journal) < t.journalCap {
		t.journal = append(t.journal, nil)
		copy(t.journal[i+1:], t.journal[i:])
		t.journal[i] = d
		t.jlen.Inc()
		return
	}
	if i == 0 {
		return // faster than everything resident: not among the N slowest
	}
	// Evict the fastest resident tree to keep the N slowest.
	copy(t.journal[:i-1], t.journal[1:i])
	t.journal[i-1] = d
	t.jevict.Inc()
}

// SlowSpans returns the journal's span trees, slowest first. The trees are
// finished and immutable; callers must not mutate them. Nil-safe.
func (t *Tracer) SlowSpans() []*SpanData {
	if t == nil {
		return nil
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	out := make([]*SpanData, len(t.journal))
	for i, d := range t.journal {
		out[len(out)-1-i] = d
	}
	return out
}
