package slo

import (
	"math"
	"math/rand"
	"sort"
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

// bucketOf returns the index of the 1-2-5 bucket (1µs … 10s, then
// overflow) holding d.
func bucketOf(d time.Duration) int {
	i := 0
	for base := time.Microsecond; base <= time.Second; base *= 10 {
		for _, m := range []time.Duration{1, 2, 5} {
			if d <= base*m {
				return i
			}
			i++
		}
	}
	if d <= 10*time.Second {
		return i
	}
	return i + 1
}

// TestTrackerWindowEquivalence feeds a seeded stream of durations and
// admit/shed events through the registry, one round per tick, across 45
// ticks: a slow phase, a fast phase and a full window of silence. After every tick the window
// must hold exactly the rounds of the last window: the count, the mean and
// the rates equal an exact reference, and p50/p95/p99/max fall within one
// 1-2-5 bucket of the sorted durations observed inside the window.
func TestTrackerWindowEquivalence(t *testing.T) {
	fc := fakeClock()
	reg := metrics.NewRegistry()
	tk := NewTracker(reg, 800*time.Millisecond, Targets{}, nil)
	if tk.TickInterval() != 100*time.Millisecond {
		t.Fatalf("tick interval = %v, want window/8", tk.TickInterval())
	}
	srt := reg.Histogram(metrics.HistSRT)
	admitted, shed := reg.Counter(metrics.CounterAdmitted), reg.Counter(metrics.CounterOverloadShed)
	tk.Tick(fc.Now()) // baseline

	type round struct {
		durs           []time.Duration
		admitted, shed int64
	}
	var rounds []round
	r := rand.New(rand.NewSource(47))
	for k := 1; k <= 45; k++ {
		fc.Advance(tk.TickInterval())
		// Log-uniform durations up to 5s, then up to 1ms only (the slow
		// tail expires from the window while the registry's all-time max
		// stays), then a full window of silence that expires everything.
		var rd round
		if k <= 36 {
			top := 5e6
			if k > 24 {
				top = 1e3
			}
			for n := r.Intn(40); n > 0; n-- {
				us := math.Exp(r.Float64() * math.Log(top))
				rd.durs = append(rd.durs, time.Duration(us)*time.Microsecond)
			}
			rd.admitted, rd.shed = int64(r.Intn(10)), int64(r.Intn(3))
		}
		for _, d := range rd.durs {
			srt.Observe(d)
		}
		admitted.Add(rd.admitted)
		shed.Add(rd.shed)
		rounds = append(rounds, rd)
		rep := tk.Tick(fc.Now())

		// The window is the last eight rounds: the baseline is the sample
		// of the tick a full window ago.
		var ref []time.Duration
		var wantAdm, wantShed int64
		for _, prev := range rounds[max(0, len(rounds)-8):] {
			ref = append(ref, prev.durs...)
			wantAdm += prev.admitted
			wantShed += prev.shed
		}
		got := rep.SRT()
		if got.Count != int64(len(ref)) {
			t.Fatalf("tick %d: count = %d, want %d", k, got.Count, len(ref))
		}
		if rep.Rates["admitted"].Count != wantAdm || rep.Rates["shed"].Count != wantShed {
			t.Fatalf("tick %d: rates = %+v, want admitted %d shed %d", k, rep.Rates, wantAdm, wantShed)
		}
		if want := float64(wantAdm) / 0.8; rep.Rates["admitted"].PerSec != want {
			t.Fatalf("tick %d: admitted/s = %v, want %v", k, rep.Rates["admitted"].PerSec, want)
		}
		if len(ref) == 0 {
			if got != (Dist{}) {
				t.Fatalf("tick %d: empty window = %+v", k, got)
			}
			continue
		}
		sort.Slice(ref, func(i, j int) bool { return ref[i] < ref[j] })
		var sum time.Duration
		for _, d := range ref {
			sum += d
		}
		if want := int64(sum) / int64(len(ref)) / 1e3; got.MeanUS != want {
			t.Fatalf("tick %d: mean = %dµs, want %dµs", k, got.MeanUS, want)
		}
		exact := func(q float64) time.Duration {
			return ref[int(math.Ceil(q*float64(len(ref))))-1]
		}
		for _, c := range []struct {
			name  string
			gotUS int64
			want  time.Duration
		}{
			{"p50", got.P50US, exact(0.50)},
			{"p95", got.P95US, exact(0.95)},
			{"p99", got.P99US, exact(0.99)},
			{"max", got.MaxUS, ref[len(ref)-1]},
		} {
			est := time.Duration(c.gotUS) * time.Microsecond
			if diff := bucketOf(est) - bucketOf(c.want); diff < -1 || diff > 1 {
				t.Fatalf("tick %d: %s = %v, exact %v: more than one bucket apart", k, c.name, est, c.want)
			}
		}
	}
}

// TestCollectorWindowQuantiles checks the quantiles the tracker collects
// over one window of registry observations: a 95-sample body at 1ms and a
// five-sample tail at 600ms.
func TestCollectorWindowQuantiles(t *testing.T) {
	fc := fakeClock()
	reg := metrics.NewRegistry()
	tk := NewTracker(reg, 800*time.Millisecond, Targets{}, nil)
	tk.Tick(fc.Now()) // baseline
	srt := reg.Histogram(metrics.HistSRT)
	for i := 0; i < 95; i++ {
		srt.Observe(time.Millisecond)
	}
	for i := 0; i < 5; i++ {
		srt.Observe(600 * time.Millisecond)
	}

	d := tk.Report(fc.Now()).SRT()
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

// TestCollectorWindowExpiry checks that an observation and a shed count
// stay in the window for half a window and leave it a full window after the
// tick that sampled them, and that a later observation is windowed alone.
func TestCollectorWindowExpiry(t *testing.T) {
	fc := fakeClock()
	reg := metrics.NewRegistry()
	tk := NewTracker(reg, 800*time.Millisecond, Targets{}, nil)
	tk.Tick(fc.Now()) // baseline
	srt := reg.Histogram(metrics.HistSRT)
	advance := func(d time.Duration) {
		for end := fc.Now().Add(d); fc.Now().Before(end); {
			fc.Advance(tk.TickInterval())
			tk.Tick(fc.Now())
		}
	}

	srt.Observe(time.Millisecond)
	reg.Counter(metrics.CounterOverloadShed).Add(3)
	rep := tk.Report(fc.Now())
	if got := rep.SRT().Count; got != 1 {
		t.Fatalf("fresh count = %d", got)
	}
	if got := rep.Rates["shed"].Count; got != 3 {
		t.Fatalf("fresh rate = %d", got)
	}

	advance(400 * time.Millisecond)
	if got := tk.Report(fc.Now()).SRT().Count; got != 1 {
		t.Fatalf("half-window count = %d", got)
	}
	advance(500 * time.Millisecond)
	rep = tk.Report(fc.Now())
	if got := rep.SRT().Count; got != 0 {
		t.Fatalf("expired count = %d", got)
	}
	if got := rep.Rates["shed"].Count; got != 0 {
		t.Fatalf("expired rate = %d", got)
	}

	// A new observation is windowed on its own: the expired one adds
	// neither to the count nor to the max.
	srt.Observe(2 * time.Millisecond)
	d := tk.Report(fc.Now()).SRT()
	if d.Count != 1 || d.MaxUS != 2000 {
		t.Fatalf("fresh dist after expiry = %+v", d)
	}
}

// TestTrackerConcurrent observes from many goroutines while the tracker
// ticks and reports: with the clock frozen nothing leaves the window, so
// nothing may be lost.
func TestTrackerConcurrent(t *testing.T) {
	fc := fakeClock()
	reg := metrics.NewRegistry()
	tk := NewTracker(reg, time.Second, Targets{}, nil)
	tk.Tick(fc.Now())
	verify := reg.Histogram(metrics.HistPhasePrefix + trace.KindVerifyBatch.String())
	admitted := reg.Counter(metrics.CounterAdmitted)
	const goroutines, each = 8, 500
	var wg sync.WaitGroup
	for g := 0; g < goroutines; g++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < each; i++ {
				verify.Observe(time.Duration(i) * time.Microsecond)
				admitted.Inc()
			}
		}()
	}
	done := make(chan struct{})
	go func() {
		defer close(done)
		for i := 0; i < 50; i++ {
			tk.Tick(fc.Now())
			tk.Report(fc.Now())
		}
	}()
	wg.Wait()
	<-done
	rep := tk.Report(fc.Now())
	if d := rep.Phases["verify"]; d.Count != goroutines*each {
		t.Fatalf("count = %d, want %d", d.Count, goroutines*each)
	}
	if n := rep.Rates["admitted"].Count; n != goroutines*each {
		t.Fatalf("rate = %d, want %d", n, goroutines*each)
	}
}

func TestTrackerNil(t *testing.T) {
	var tk *Tracker
	if r := tk.Tick(fakeClock().Now()); r.Enabled {
		t.Fatalf("nil tracker tick = %+v", r)
	}
	if r := tk.Report(fakeClock().Now()); r.Enabled || r.SRT().Count != 0 {
		t.Fatalf("nil tracker report = %+v", r)
	}
	if tk.Targets() != (Targets{}) {
		t.Fatal("nil tracker declares targets")
	}
}

func TestTrackerBurnAndViolation(t *testing.T) {
	fc := fakeClock()
	reg := metrics.NewRegistry()
	tr := trace.New(trace.Options{Enabled: true, Registry: reg})
	tk := NewTracker(reg, 800*time.Millisecond, Targets{P99SRT: 10 * time.Millisecond, MaxShedRate: 0.5}, tr)
	srt := reg.Histogram(metrics.HistSRT)
	tk.Tick(fc.Now()) // baseline

	fc.Advance(100 * time.Millisecond)
	for i := 0; i < 50; i++ {
		srt.Observe(time.Millisecond)
	}
	reg.Counter(metrics.CounterAdmitted).Add(50)
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
		srt.Observe(40 * time.Millisecond)
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
		srt.Observe(40 * time.Millisecond)
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
	reg := metrics.NewRegistry()
	tk := NewTracker(reg, 800*time.Millisecond, Targets{MaxShedRate: 0.10}, nil)
	tk.Tick(fc.Now()) // baseline

	reg.Counter(metrics.CounterAdmitted).Add(80)
	reg.Counter(metrics.CounterOverloadShed).Add(20)
	fc.Advance(100 * time.Millisecond)
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
	tk := NewTracker(metrics.NewRegistry(), 800*time.Millisecond, Targets{}, nil)

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
