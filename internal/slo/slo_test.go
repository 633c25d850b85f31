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

func TestControllerApplyClampAndMetrics(t *testing.T) {
	reg := metrics.NewRegistry()
	tr := trace.New(trace.Options{Enabled: true, Registry: reg})
	var knob int64 = 10
	c := &Controller{
		Knob: Knob{
			Name: "max_inflight",
			Min:  2, Max: 16,
			Get: func() int64 { return knob },
			Set: func(v int64) { knob = v },
		},
		Decide: func(r Report, cur int64) int64 { return cur * 4 },
	}
	from, to, changed := c.Apply(Report{}, reg, tr)
	if !changed || from != 10 || to != 16 || knob != 16 {
		t.Fatalf("apply = (%d,%d,%v), knob=%d; want clamp to 16", from, to, changed, knob)
	}
	if got := reg.Counter(metrics.GaugeAdaptPrefix + "max_inflight").Value(); got != 16 {
		t.Fatalf("adapt gauge = %d", got)
	}
	if got := reg.Counter(metrics.CounterAdaptAdjust).Value(); got != 1 {
		t.Fatalf("adapt_adjustments_total = %d", got)
	}
	// At the clamp ceiling the same decision is a no-op: no second metric.
	if _, _, changed := c.Apply(Report{}, reg, tr); changed {
		t.Fatal("no-op decision reported as change")
	}
	if got := reg.Counter(metrics.CounterAdaptAdjust).Value(); got != 1 {
		t.Fatalf("no-op bumped adapt_adjustments_total to %d", got)
	}
	// The adjustment span reached the journal pipeline (threshold 0).
	found := false
	for _, sp := range tr.SlowSpans() {
		if sp.Kind == trace.KindAdapt.String() && sp.Attrs["controller"] == "max_inflight" {
			found = true
		}
	}
	if !found {
		t.Fatal("no adapt span recorded")
	}
}

func report(srt Dist, shed, admitted int64, sources map[string]float64) Report {
	r := Report{
		Phases: map[string]Dist{PhaseSRT.String(): srt},
		Rates: map[string]RateInfo{
			RateShed.String():     {Count: shed},
			RateAdmitted.String(): {Count: admitted},
		},
		Sources: sources,
	}
	if total := shed + admitted; total > 0 {
		r.ShedRate = float64(shed) / float64(total)
	}
	return r
}

func TestInFlightPolicy(t *testing.T) {
	p := InFlightPolicy(Targets{P99SRT: 10 * time.Millisecond})

	// Overshooting p99 → multiplicative back-off.
	r := report(Dist{Count: 100, P99US: 20_000}, 0, 100, nil)
	if got := p(r, 16); got != 12 {
		t.Fatalf("overshoot: %d, want 12", got)
	}
	// Headroom + shedding → growth.
	r = report(Dist{Count: 100, P99US: 2_000}, 10, 100, nil)
	if got := p(r, 16); got != 24 {
		t.Fatalf("headroom+shed: %d, want 24", got)
	}
	// Headroom, no shedding → hold.
	r = report(Dist{Count: 100, P99US: 2_000}, 0, 100, nil)
	if got := p(r, 16); got != 16 {
		t.Fatalf("steady: %d, want 16", got)
	}
	// Too little signal → hold even when apparently overshooting.
	r = report(Dist{Count: 3, P99US: 50_000}, 0, 3, nil)
	if got := p(r, 16); got != 16 {
		t.Fatalf("thin signal: %d, want 16", got)
	}
}

func TestWorkerPolicy(t *testing.T) {
	p := WorkerPolicy(Targets{P99SRT: 10 * time.Millisecond}, "util")

	// Saturated and near target → grow by one.
	r := report(Dist{Count: 100, P99US: 9_000}, 0, 100, map[string]float64{"util": 0.95})
	if got := p(r, 4); got != 5 {
		t.Fatalf("saturated: %d, want 5", got)
	}
	// Saturated but far under target → hold (efficient, not pressured).
	r = report(Dist{Count: 100, P99US: 1_000}, 0, 100, map[string]float64{"util": 0.95})
	if got := p(r, 4); got != 4 {
		t.Fatalf("efficient: %d, want 4", got)
	}
	// Idle → shrink by one.
	r = report(Dist{Count: 100, P99US: 1_000}, 0, 100, map[string]float64{"util": 0.1})
	if got := p(r, 4); got != 3 {
		t.Fatalf("idle: %d, want 3", got)
	}
	// No utilization source → hold.
	r = report(Dist{Count: 100, P99US: 1_000}, 0, 100, nil)
	if got := p(r, 4); got != 4 {
		t.Fatalf("sourceless: %d, want 4", got)
	}
}

func TestCachePolicy(t *testing.T) {
	src := CacheSources{Hits: "h", Misses: "m", Evictions: "e", Bytes: "b"}
	p := CachePolicy(src)

	// Thrashing (poor ratio, evicting) → double.
	r := report(Dist{}, 0, 0, map[string]float64{"h": 30, "m": 70, "e": 5, "b": 1000})
	if got := p(r, 1000); got != 2000 {
		t.Fatalf("thrash: %d, want 2000", got)
	}
	// Over-provisioned (near-perfect ratio, tiny residency) → halve.
	r = report(Dist{}, 0, 0, map[string]float64{"h": 99, "m": 1, "e": 0, "b": 100})
	if got := p(r, 1000); got != 500 {
		t.Fatalf("overprovisioned: %d, want 500", got)
	}
	// Cold traffic (poor ratio, no evictions) → hold.
	r = report(Dist{}, 0, 0, map[string]float64{"h": 30, "m": 70, "e": 0, "b": 1000})
	if got := p(r, 1000); got != 1000 {
		t.Fatalf("cold: %d, want 1000", got)
	}
	// Too little traffic → hold.
	r = report(Dist{}, 0, 0, map[string]float64{"h": 2, "m": 1, "e": 9, "b": 1000})
	if got := p(r, 1000); got != 1000 {
		t.Fatalf("thin: %d, want 1000", got)
	}
}

// TestControllerDeterminism drives the same synthetic report sequence twice
// and requires identical knob trajectories — the controller layer has no
// hidden clocks or randomness.
func TestControllerDeterminism(t *testing.T) {
	run := func() []int64 {
		var knob int64 = 8
		c := &Controller{
			Knob: Knob{Name: "k", Min: 1, Max: 128,
				Get: func() int64 { return knob },
				Set: func(v int64) { knob = v }},
			Decide: InFlightPolicy(Targets{P99SRT: 10 * time.Millisecond}),
		}
		seq := []Report{
			report(Dist{Count: 50, P99US: 2_000}, 5, 50, nil),  // grow
			report(Dist{Count: 50, P99US: 2_000}, 5, 50, nil),  // grow
			report(Dist{Count: 50, P99US: 30_000}, 0, 50, nil), // back off
			report(Dist{Count: 2, P99US: 30_000}, 0, 2, nil),   // hold
			report(Dist{Count: 50, P99US: 1_000}, 1, 50, nil),  // grow
		}
		var traj []int64
		for _, r := range seq {
			c.Apply(r, nil, nil)
			traj = append(traj, knob)
		}
		return traj
	}
	a, b := run(), run()
	for i := range a {
		if a[i] != b[i] {
			t.Fatalf("trajectory diverged at %d: %v vs %v", i, a, b)
		}
	}
	want := []int64{12, 18, 14, 14, 21}
	for i := range want {
		if a[i] != want[i] {
			t.Fatalf("trajectory = %v, want %v", a, want)
		}
	}
}
