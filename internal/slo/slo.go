// Package slo is PRAGUE's fleet-scale SLO telemetry layer: rolling-window
// latency histograms per evaluation phase and per degradation-ladder outcome
// stage, windowed event rates (admitted/shed), an SLO tracker that turns
// declared targets (p99 SRT, max shed rate) into burn rates and violation
// spans, and a tiny feedback-controller framework the service uses to turn
// runtime knobs (workpool size, admission MaxInFlight, candidate-cache byte
// budget) from nothing but this windowed telemetry.
//
// The collector is built for the hot path: a window is a ring of time slots,
// each an epoch-tagged set of atomic bucket counters. Observing costs one
// clock read, one CAS-guarded slot-epoch check, and a handful of atomic adds
// — no locks, no allocation. Slot rotation is best-effort: observations
// racing a rotation may land in a slot being recycled and be lost; this is
// telemetry, and losing a sample at a 1/slotDur boundary is the accepted
// price for a lock-free window (the same stance metrics.Histogram takes on
// torn snapshot reads). A nil *Collector no-ops every method.
//
// Cumulative counters (cache hits, worker busyness) cannot be windowed at
// the source without taxing their hot paths, so the Tracker samples them on
// its tick and differentiates: windowed rate = (cur - old)/window. That puts
// the cost on the tick (O(sources) per interval), not on the serving path.
package slo

import (
	"sort"
	"sync/atomic"
	"time"

	"prague/internal/clock"
)

// Phase identifies a latency phase with its own rolling window. The phases
// mirror PRAGUE's SRT decomposition: where does the time of a formulation
// step / Run actually go.
type Phase uint8

const (
	PhaseSpigBuild  Phase = iota // Algorithm 2: SPIG construction per step
	PhaseIndexProbe              // A²F/A²I lookups + FSG intersection
	PhaseCandCache               // shared candidate-cache fetch (hit or miss)
	PhaseVerify                  // one verification fan-out through the pool
	PhaseSRT                     // total system response time of a Run

	numPhases
)

var phaseNames = [numPhases]string{
	PhaseSpigBuild:  "spig_build",
	PhaseIndexProbe: "index_probe",
	PhaseCandCache:  "candcache",
	PhaseVerify:     "verify",
	PhaseSRT:        "srt",
}

func (p Phase) String() string {
	if int(p) < len(phaseNames) {
		return phaseNames[p]
	}
	return "unknown"
}

// Stage identifies a degradation-ladder outcome with its own SRT window, so
// "p99 of the answers we degraded" is visible separately from "p99 of the
// exact answers".
type Stage uint8

const (
	StageExact      Stage = iota // full exact containment answer
	StageTruncated               // verified-subset (partial/truncated) answer
	StageSimilarity              // similarity-bound fallback answer
	StageCached                  // last-known-good cached answer

	numStages
)

var stageNames = [numStages]string{
	StageExact:      "exact",
	StageTruncated:  "truncated",
	StageSimilarity: "similarity",
	StageCached:     "cached",
}

func (s Stage) String() string {
	if int(s) < len(stageNames) {
		return stageNames[s]
	}
	return "unknown"
}

// Rate identifies a windowed event counter.
type Rate uint8

const (
	RateAdmitted Rate = iota // actions admitted past admission control
	RateShed                 // actions rejected by admission control

	numRates
)

var rateNames = [numRates]string{
	RateAdmitted: "admitted",
	RateShed:     "shed",
}

func (r Rate) String() string {
	if int(r) < len(rateNames) {
		return rateNames[r]
	}
	return "unknown"
}

// Window bucketing: 1-2-5 per decade from 1µs to 10s. Finer than the
// metrics package's decade buckets because windowed p99s drive controller
// decisions — a 10x-wide containing bucket would make the interpolated p99
// useless as an error signal.
var bounds = func() []time.Duration {
	var b []time.Duration
	for base := time.Microsecond; base <= 10*time.Second; base *= 10 {
		for _, m := range []time.Duration{1, 2, 5} {
			if v := base * m; v <= 10*time.Second {
				b = append(b, v)
			}
		}
	}
	return b
}()

const numSlots = 8 // slots per window; window duration = numSlots * slotDur

// histSlot is one time slice of one phase/stage window. seq tags which slot
// period the counters belong to; a slot whose seq is stale is recycled in
// place by the first observer of the new period.
type histSlot struct {
	seq     atomic.Int64
	count   atomic.Int64
	sumNS   atomic.Int64
	maxNS   atomic.Int64
	buckets []atomic.Int64 // len(bounds)+1, last = overflow
}

func (s *histSlot) reset() {
	s.count.Store(0)
	s.sumNS.Store(0)
	s.maxNS.Store(0)
	for i := range s.buckets {
		s.buckets[i].Store(0)
	}
}

// window is a ring of slots covering the last numSlots slot periods.
type window struct {
	slots [numSlots]histSlot
}

func (w *window) init() {
	for i := range w.slots {
		w.slots[i].seq.Store(-1)
		w.slots[i].buckets = make([]atomic.Int64, len(bounds)+1)
	}
}

// rotate claims the slot for seq, recycling it if it still holds an older
// period. Returns the slot (always usable; best-effort under races).
func rotate(s *histSlot, seq int64) {
	for {
		cur := s.seq.Load()
		if cur == seq {
			return
		}
		if s.seq.CompareAndSwap(cur, seq) {
			s.reset()
			return
		}
	}
}

func (w *window) observe(seq int64, d time.Duration) {
	if d < 0 {
		d = 0
	}
	s := &w.slots[seq%numSlots]
	rotate(s, seq)
	i := sort.Search(len(bounds), func(i int) bool { return d <= bounds[i] })
	s.buckets[i].Add(1)
	s.count.Add(1)
	s.sumNS.Add(int64(d))
	for {
		cur := s.maxNS.Load()
		if int64(d) <= cur || s.maxNS.CompareAndSwap(cur, int64(d)) {
			break
		}
	}
}

// Dist is the merged view of one window: observation count and interpolated
// quantiles over the last numSlots slot periods. All durations are
// microseconds so the struct JSON-marshals without float drift.
type Dist struct {
	Count  int64 `json:"count"`
	P50US  int64 `json:"p50_us"`
	P95US  int64 `json:"p95_us"`
	P99US  int64 `json:"p99_us"`
	MeanUS int64 `json:"mean_us"`
	MaxUS  int64 `json:"max_us"`
}

func (w *window) merged(nowSeq int64) Dist {
	counts := make([]int64, len(bounds)+1)
	var d Dist
	for i := range w.slots {
		s := &w.slots[i]
		seq := s.seq.Load()
		if seq < 0 || seq > nowSeq || nowSeq-seq >= numSlots {
			continue
		}
		d.Count += s.count.Load()
		d.MeanUS += s.sumNS.Load() // ns sum for now; divided below
		if m := s.maxNS.Load() / 1e3; m > d.MaxUS {
			d.MaxUS = m
		}
		for j := range counts {
			counts[j] += s.buckets[j].Load()
		}
	}
	if d.Count == 0 {
		d.MeanUS = 0
		return d
	}
	d.MeanUS = d.MeanUS / d.Count / 1e3
	d.P50US = quantileUS(counts, d.Count, 0.50)
	d.P95US = quantileUS(counts, d.Count, 0.95)
	d.P99US = quantileUS(counts, d.Count, 0.99)
	// Interpolation places a quantile inside its containing bucket, which can
	// overshoot the true maximum when the tail bucket is sparse; the window
	// tracks the exact max, so clamp to it.
	for _, q := range []*int64{&d.P50US, &d.P95US, &d.P99US} {
		if *q > d.MaxUS {
			*q = d.MaxUS
		}
	}
	return d
}

// quantileUS estimates the q-quantile in microseconds by linear
// interpolation within the containing bucket (the histogram_quantile
// estimate, as in prague/internal/metrics).
func quantileUS(counts []int64, total int64, q float64) int64 {
	rank := q * float64(total)
	var seen int64
	for i, c := range counts {
		if c == 0 {
			continue
		}
		if float64(seen+c) >= rank {
			lo := 0.0
			if i > 0 {
				lo = float64(bounds[i-1])
			}
			hi := float64(10*time.Second) * 2
			if i < len(bounds) {
				hi = float64(bounds[i])
			}
			frac := (rank - float64(seen)) / float64(c)
			if frac < 0 {
				frac = 0
			} else if frac > 1 {
				frac = 1
			}
			return int64((lo + (hi-lo)*frac) / 1e3)
		}
		seen += c
	}
	return int64(bounds[len(bounds)-1] / 1e3)
}

// rateSlot / rateWindow: the same ring for plain event counts.
type rateSlot struct {
	seq atomic.Int64
	n   atomic.Int64
}

type rateWindow struct {
	slots [numSlots]rateSlot
}

func (w *rateWindow) init() {
	for i := range w.slots {
		w.slots[i].seq.Store(-1)
	}
}

func (w *rateWindow) add(seq, delta int64) {
	s := &w.slots[seq%numSlots]
	for {
		cur := s.seq.Load()
		if cur == seq {
			break
		}
		if s.seq.CompareAndSwap(cur, seq) {
			s.n.Store(0)
			break
		}
	}
	s.n.Add(delta)
}

func (w *rateWindow) sum(nowSeq int64) int64 {
	var n int64
	for i := range w.slots {
		s := &w.slots[i]
		seq := s.seq.Load()
		if seq < 0 || seq > nowSeq || nowSeq-seq >= numSlots {
			continue
		}
		n += s.n.Load()
	}
	return n
}

// RateInfo is the merged view of one rate window.
type RateInfo struct {
	Count  int64   `json:"count"`
	PerSec float64 `json:"per_sec"`
}

// DefaultWindow is the rolling-window span when WithSLO is used without an
// explicit window.
const DefaultWindow = 5 * time.Second

// Collector owns the rolling windows. All Observe*/Add methods are safe for
// unbounded concurrency; a nil Collector no-ops.
type Collector struct {
	clk     clock.Clock
	epoch   time.Time // construction instant; slot seq = Since(epoch)/slotDur
	slotDur time.Duration

	phases [numPhases]window
	stages [numStages]window
	rates  [numRates]rateWindow
}

// NewCollector creates a collector whose windows span roughly
// `window` (clamped to ≥ 80ms so each of the 8 slots covers ≥ 10ms), using
// clk for slot rotation — a clock.Fake makes the windows fully
// deterministic in tests.
func NewCollector(clk clock.Clock, window time.Duration) *Collector {
	if clk == nil {
		clk = clock.Real{}
	}
	if window <= 0 {
		window = DefaultWindow
	}
	if window < 80*time.Millisecond {
		window = 80 * time.Millisecond
	}
	c := &Collector{
		clk:     clk,
		epoch:   clk.Now(),
		slotDur: window / numSlots,
	}
	for i := range c.phases {
		c.phases[i].init()
	}
	for i := range c.stages {
		c.stages[i].init()
	}
	for i := range c.rates {
		c.rates[i].init()
	}
	return c
}

// Window returns the collector's rolling-window span.
func (c *Collector) Window() time.Duration {
	if c == nil {
		return 0
	}
	return c.slotDur * numSlots
}

// Enabled reports whether the collector records: every non-nil one does.
func (c *Collector) Enabled() bool { return c != nil }

func (c *Collector) seqNow() int64 {
	return int64(c.clk.Now().Sub(c.epoch) / c.slotDur)
}

// ObservePhase records one phase duration into its rolling window.
func (c *Collector) ObservePhase(p Phase, d time.Duration) {
	if c == nil || p >= numPhases {
		return
	}
	c.phases[p].observe(c.seqNow(), d)
}

// ObserveStage records one Run's SRT into its outcome stage's window.
func (c *Collector) ObserveStage(s Stage, d time.Duration) {
	if c == nil || s >= numStages {
		return
	}
	c.stages[s].observe(c.seqNow(), d)
}

// AddRate counts n events on a rate window.
func (c *Collector) AddRate(r Rate, n int64) {
	if c == nil || r >= numRates {
		return
	}
	c.rates[r].add(c.seqNow(), n)
}

// PhaseDist returns the merged rolling-window view of one phase.
func (c *Collector) PhaseDist(p Phase) Dist {
	if c == nil || p >= numPhases {
		return Dist{}
	}
	return c.phases[p].merged(c.seqNow())
}

// StageDist returns the merged rolling-window view of one outcome stage.
func (c *Collector) StageDist(s Stage) Dist {
	if c == nil || s >= numStages {
		return Dist{}
	}
	return c.stages[s].merged(c.seqNow())
}

// RateCount returns the merged windowed event count of one rate.
func (c *Collector) RateCount(r Rate) int64 {
	if c == nil || r >= numRates {
		return 0
	}
	return c.rates[r].sum(c.seqNow())
}
