// The service side of the SLO telemetry: the serving-path instruments, the
// tracker over the service's registry, its sampled sources, and the tick
// loop that drives it. Data flow:
//
//	serving path ──observe──▶ metrics.Registry ◀──observe── trace spans (phase_*)
//	                               │ sample every window/8
//	                               ▼
//	               slo.Tracker (window = now − sample a window ago)
//	                               │
//	                               ▼
//	                          slo.Report ──▶ /slo, praguecli slo
//
// The telemetry observes and reports; it moves no runtime setting.

package service

import (
	"prague/internal/clock"
	"prague/internal/core"
	"prague/internal/metrics"
	"prague/internal/slo"
)

// srcWorkerUtil names the sampled worker-busyness source.
const srcWorkerUtil = "worker_util"

// instruments are the serving path's per-action metrics, resolved from the
// registry once at construction: each step and Run makes one observation
// per measurement and looks nothing up by name.
type instruments struct {
	steps, runs, admitted                            *metrics.Counter
	spigBuild, stepEval, srt                         *metrics.Histogram
	srtExact, srtTruncated, srtSimilarity, srtCached *metrics.Histogram
}

func newInstruments(reg *metrics.Registry) instruments {
	return instruments{
		steps:         reg.Counter(metrics.CounterStepsEvaluated),
		runs:          reg.Counter(metrics.CounterRuns),
		admitted:      reg.Counter(metrics.CounterAdmitted),
		spigBuild:     reg.Histogram(metrics.HistSpigBuild),
		stepEval:      reg.Histogram(metrics.HistStepEval),
		srt:           reg.Histogram(metrics.HistSRT),
		srtExact:      reg.Histogram(metrics.HistSRTExact),
		srtTruncated:  reg.Histogram(metrics.HistSRTTruncated),
		srtSimilarity: reg.Histogram(metrics.HistSRTSimilarity),
		srtCached:     reg.Histogram(metrics.HistSRTCached),
	}
}

// stageSRT returns the SRT histogram of a Run's ladder outcome.
func (in *instruments) stageSRT(out core.RunOutcome) *metrics.Histogram {
	switch {
	case out.Stage == core.StageSimilarity:
		return in.srtSimilarity
	case out.Stage == core.StageCachedGood:
		return in.srtCached
	case out.Stage == core.StagePartial || out.Truncated:
		return in.srtTruncated
	}
	return in.srtExact
}

// sloEnabled reports whether any option turned the SLO telemetry on.
func (o *Options) sloEnabled() bool {
	return o.SLO != (slo.Targets{}) || o.SLOWindow > 0
}

// initSLO builds the tracker and its sources, takes the baseline sample,
// and starts the tick loop. Called once from NewFromStore, before the ops
// server (which serves SLOReport) binds.
func (s *Service) initSLO() {
	if !s.opt.sloEnabled() {
		return
	}
	s.slotrack = slo.NewTracker(s.reg, s.opt.SLOWindow, s.opt.SLO, s.tracer)

	// Sampled sources: the cumulative cache counters (differentiated into
	// windowed deltas) and instantaneous cache bytes and worker busyness
	// (averaged over the window's ticks).
	if s.cache != nil {
		for _, name := range []string{metrics.CounterCandHits, metrics.CounterCandMisses, metrics.CounterCandEvictions} {
			s.slotrack.AddCounterSource(name, s.reg.Counter(name).Value)
		}
		bytes := s.reg.Counter(metrics.CounterCandBytes)
		s.slotrack.AddGaugeSource(metrics.CounterCandBytes, func() float64 { return float64(bytes.Value()) })
	}
	pool := s.pool
	s.slotrack.AddGaugeSource(srcWorkerUtil, func() float64 {
		if w := pool.Workers(); w > 0 {
			return float64(pool.Busy()) / float64(w)
		}
		return 0
	})
	s.sloTick() // the baseline: what the registry held before is outside every window

	s.stopSLO = make(chan struct{})
	s.sloDone = make(chan struct{})
	// Ticker created here, not in the goroutine, so a test clock advanced
	// right after construction is guaranteed to reach it (same rule as the
	// janitor).
	go s.sloLoop(s.clk.NewTicker(s.slotrack.TickInterval()))
}

func (s *Service) sloLoop(t clock.Ticker) {
	defer close(s.sloDone)
	defer t.Stop()
	for {
		select {
		case <-s.stopSLO:
			return
		case <-t.C():
			s.sloTick()
		}
	}
}

// sloTick runs one tracker tick. Exposed to tests (same package) so the
// windows and burn rates can be driven tick by tick under clock.Fake.
func (s *Service) sloTick() { s.slotrack.Tick(s.clk.Now()) }

// SLOReport returns the rolling-window SLO report: phase/stage windows,
// rates, sampled sources, burn rates, and violation totals. The zero Report
// (Enabled false) is returned when the SLO telemetry is off.
func (s *Service) SLOReport() slo.Report {
	if s.slotrack == nil {
		return slo.Report{}
	}
	return s.slotrack.Report(s.clk.Now())
}

// SLOTargets returns the declared targets (zero when none were declared).
func (s *Service) SLOTargets() slo.Targets { return s.slotrack.Targets() }
