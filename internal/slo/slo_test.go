package slo

import (
	"sync"
	"testing"
	"time"

	"prague/internal/clock"
	"prague/internal/metrics"
	"prague/internal/trace"
)

func fakeClock() *clock.Fake {
	return clock.NewFake(time.Date(2026, 1, 1, 0, 0, 0, 0, time.UTC))
}

func TestCollectorWindowQuantiles(t *testing.T) {
	fc := fakeClock()
	c := NewCollector(fc, 800*time.Millisecond) // slotDur = 100ms

	for i := 0; i < 95; i++ {
		c.ObservePhase(PhaseSRT, time.Millisecond)
	}
	for i := 0; i < 5; i++ {
		c.ObservePhase(PhaseSRT, 600*time.Millisecond)
	}

	d := c.PhaseDist(PhaseSRT)
	if d.Count != 100 {
		t.Fatalf("count = %d, want 100", d.Count)
	}
	// p50 must sit in the 1ms bucket (bounds 500µs..1ms), p99 in the
	// 500ms..1s bucket holding the five-sample tail.
	if d.P50US < 500 || d.P50US > 1000 {
		t.Fatalf("p50 = %dµs, want within (500µs, 1ms]", d.P50US)
	}
	if d.P99US < 500_000 || d.P99US > 1_000_000 {
		t.Fatalf("p99 = %dµs, want within (500ms, 1s]", d.P99US)
	}
	if d.MaxUS != 600_000 {
		t.Fatalf("max = %dµs, want 600ms", d.MaxUS)
	}
}

func TestCollectorWindowExpiry(t *testing.T) {
	fc := fakeClock()
	c := NewCollector(fc, 800*time.Millisecond)

	c.ObservePhase(PhaseSRT, time.Millisecond)
	c.AddRate(RateShed, 3)
	if got := c.PhaseDist(PhaseSRT).Count; got != 1 {
		t.Fatalf("fresh count = %d", got)
	}
	if got := c.RateCount(RateShed); got != 3 {
		t.Fatalf("fresh rate = %d", got)
	}

	// Half a window later both are still visible; a full window later the
	// slots have aged out without any observer having to recycle them.
	fc.Advance(400 * time.Millisecond)
	if got := c.PhaseDist(PhaseSRT).Count; got != 1 {
		t.Fatalf("half-window count = %d", got)
	}
	fc.Advance(500 * time.Millisecond)
	if got := c.PhaseDist(PhaseSRT).Count; got != 0 {
		t.Fatalf("expired count = %d", got)
	}
	if got := c.RateCount(RateShed); got != 0 {
		t.Fatalf("expired rate = %d", got)
	}

	// Slot reuse: a new observation in the recycled ring slot replaces the
	// stale counters rather than adding to them.
	c.ObservePhase(PhaseSRT, 2*time.Millisecond)
	d := c.PhaseDist(PhaseSRT)
	if d.Count != 1 || d.MaxUS != 2000 {
		t.Fatalf("recycled slot dist = %+v", d)
	}
}

func TestCollectorDisabledAndNil(t *testing.T) {
	var nilC *Collector
	nilC.ObservePhase(PhaseSRT, time.Second) // must not panic
	nilC.ObserveStage(StageExact, time.Second)
	nilC.AddRate(RateShed, 1)
	if nilC.Enabled() || nilC.Window() != 0 {
		t.Fatal("nil collector must be disabled with zero window")
	}
	if d := nilC.PhaseDist(PhaseSRT); d.Count != 0 {
		t.Fatalf("nil dist = %+v", d)
	}
}

func TestCollectorConcurrent(t *testing.T) {
	fc := fakeClock()
	c := NewCollector(fc, time.Second)
	var wg sync.WaitGroup
	const goroutines, each = 8, 500
	for g := 0; g < goroutines; g++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < each; i++ {
				c.ObservePhase(PhaseVerify, time.Duration(i)*time.Microsecond)
				c.AddRate(RateAdmitted, 1)
			}
		}()
	}
	wg.Wait()
	// No slot rotation happened (fake clock frozen), so nothing may be lost.
	if d := c.PhaseDist(PhaseVerify); d.Count != goroutines*each {
		t.Fatalf("count = %d, want %d", d.Count, goroutines*each)
	}
	if n := c.RateCount(RateAdmitted); n != goroutines*each {
		t.Fatalf("rate = %d, want %d", n, goroutines*each)
	}
}

func TestTrackerBurnAndViolation(t *testing.T) {
	fc := fakeClock()
	c := NewCollector(fc, 800*time.Millisecond)
	reg := metrics.NewRegistry()
	tr := trace.New(trace.Options{Enabled: true, Registry: reg})
	tk := NewTracker(c, Targets{P99SRT: 10 * time.Millisecond, MaxShedRate: 0.5}, tr, reg)

	for i := 0; i < 50; i++ {
		c.ObservePhase(PhaseSRT, time.Millisecond)
	}
	c.AddRate(RateAdmitted, 50)
	r := tk.Tick(fc.Now())
	if r.Violating || r.Violations != 0 {
		t.Fatalf("in-SLO tick flagged violating: %+v", r)
	}
	if r.BurnP99 <= 0 || r.BurnP99 > 0.2 {
		t.Fatalf("burn p99 = %v, want small and positive", r.BurnP99)
	}

	// Push p99 over target: every observation now takes 40ms > 10ms target.
	fc.Advance(100 * time.Millisecond)
	for i := 0; i < 100; i++ {
		c.ObservePhase(PhaseSRT, 40*time.Millisecond)
	}
	r = tk.Tick(fc.Now())
	if !r.Violating || r.Violations != 1 {
		t.Fatalf("overload tick not violating: %+v", r)
	}
	if r.BurnP99 < 1 {
		t.Fatalf("burn p99 = %v, want ≥ 1", r.BurnP99)
	}
	if got := reg.Counter(metrics.CounterSLOViolations).Value(); got != 1 {
		t.Fatalf("slo_violations_total = %d", got)
	}

	// A second violating tick extends the same violation (no new onset) and
	// accumulates violation time.
	fc.Advance(100 * time.Millisecond)
	for i := 0; i < 100; i++ {
		c.ObservePhase(PhaseSRT, 40*time.Millisecond)
	}
	r = tk.Tick(fc.Now())
	if r.Violations != 1 {
		t.Fatalf("second violating tick opened a new violation: %+v", r)
	}
	if r.ViolationSec <= 0 {
		t.Fatalf("violation time not accumulating: %+v", r)
	}

	// The violation span landed in the trace journal with the arithmetic.
	spans := tr.SlowSpans()
	found := false
	for _, sp := range spans {
		if sp.Kind == trace.KindSLOViolation.String() {
			found = true
			if sp.Attrs["p99_target_us"] != "10000" {
				t.Fatalf("violation span attrs = %v", sp.Attrs)
			}
		}
	}
	if !found {
		t.Fatalf("no slo_violation span in journal: %d spans", len(spans))
	}

	// Recovery: stop observing, let the window drain, shed target intact.
	fc.Advance(2 * time.Second)
	r = tk.Tick(fc.Now())
	if r.Violating {
		t.Fatalf("drained window still violating: %+v", r)
	}
}

func TestTrackerShedRateTarget(t *testing.T) {
	fc := fakeClock()
	c := NewCollector(fc, 800*time.Millisecond)
	tk := NewTracker(c, Targets{MaxShedRate: 0.10}, nil, nil)

	c.AddRate(RateAdmitted, 80)
	c.AddRate(RateShed, 20)
	r := tk.Tick(fc.Now())
	if r.ShedRate != 0.2 {
		t.Fatalf("shed rate = %v, want 0.2", r.ShedRate)
	}
	if !r.Violating || r.BurnShed != 2.0 {
		t.Fatalf("shed violation not flagged: %+v", r)
	}
}

func TestTrackerSources(t *testing.T) {
	fc := fakeClock()
	c := NewCollector(fc, 800*time.Millisecond)
	tk := NewTracker(c, Targets{}, nil, nil)

	var cum int64
	gaugeVal := 0.5
	tk.AddCounterSource("hits", func() int64 { return cum })
	tk.AddGaugeSource("util", func() float64 { return gaugeVal })

	cum = 100
	tk.Tick(fc.Now())
	fc.Advance(200 * time.Millisecond)
	cum, gaugeVal = 160, 1.0
	r := tk.Tick(fc.Now())

	// Counter source: windowed delta (both samples in window → 160-100).
	if got := r.Sources["hits"]; got != 60 {
		t.Fatalf("hits delta = %v, want 60", got)
	}
	// Gauge source: mean of in-window samples (0.5 and 1.0).
	if got := r.Sources["util"]; got != 0.75 {
		t.Fatalf("util mean = %v, want 0.75", got)
	}

	// Samples outside the window stop contributing.
	fc.Advance(2 * time.Second)
	cum = 200
	r = tk.Tick(fc.Now())
	if got := r.Sources["hits"]; got != 40 {
		t.Fatalf("post-gap hits delta = %v, want 40 (200-160)", got)
	}
	if got := r.Sources["util"]; got != 1.0 {
		t.Fatalf("post-gap util mean = %v, want 1.0", got)
	}
}
