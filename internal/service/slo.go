// The service side of the SLO telemetry: construction of the rolling-window
// collector and tracker, the trace→window bridge, the sampled sources, and
// the tick loop that drives the tracker. Data flow:
//
//	serving path ──observe──▶ slo.Collector (rolling windows)
//	trace spans  ──bridge───▶ slo.Collector (trace-only phases)
//	cumulative counters ──sample──▶ slo.Tracker (windowed deltas)
//	                                  │ tick
//	                                  ▼
//	                             slo.Report ──▶ /slo, praguecli slo
//
// The telemetry observes and reports; it moves no runtime setting.

package service

import (
	"time"

	"prague/internal/clock"
	"prague/internal/core"
	"prague/internal/slo"
	"prague/internal/trace"
)

// Tracker source names (see slo.Tracker.Add*Source).
const (
	srcCacheHits      = "candcache_hits"
	srcCacheMisses    = "candcache_misses"
	srcCacheEvictions = "candcache_evictions"
	srcCacheBytes     = "candcache_bytes"
	srcWorkerUtil     = "worker_util"
)

// sloEnabled reports whether any option turned the SLO telemetry on.
func (o *Options) sloEnabled() bool {
	return o.SLO != (slo.Targets{}) || o.SLOWindow > 0
}

// initSLO builds the collector, tracker, and sources, wires the
// trace-span bridge, and starts the tick loop. Called once from
// NewFromStore, before the ops server (which serves SLOReport) binds.
func (s *Service) initSLO() {
	if !s.opt.sloEnabled() {
		return
	}
	s.col = slo.NewCollector(s.clk, s.opt.SLOWindow)
	s.slotrack = slo.NewTracker(s.col, s.opt.SLO, s.tracer, s.reg)

	// Bridge: phases only the tracer times (index probes, cache fetches,
	// verification fan-outs) flow into the windows as their span trees
	// finalize. They populate only while tracing is enabled — the windows
	// for SPIG build and total SRT are fed directly by the serving path and
	// are always live.
	if s.tracer != nil {
		col := s.col
		s.tracer.SetSpanObserver(func(kind string, d time.Duration) {
			switch kind {
			case trace.KindIndexProbe.String():
				col.ObservePhase(slo.PhaseIndexProbe, d)
			case trace.KindCandFetch.String():
				col.ObservePhase(slo.PhaseCandCache, d)
			case trace.KindVerifyBatch.String():
				col.ObservePhase(slo.PhaseVerify, d)
			}
		})
	}

	// Sampled sources: cumulative cache counters (differentiated into
	// windowed deltas by the tracker) and instantaneous worker busyness
	// (averaged over the window's ticks).
	if s.cache != nil {
		cache := s.cache
		s.slotrack.AddCounterSource(srcCacheHits, func() int64 { return cache.Stats().Hits })
		s.slotrack.AddCounterSource(srcCacheMisses, func() int64 { return cache.Stats().Misses })
		s.slotrack.AddCounterSource(srcCacheEvictions, func() int64 { return cache.Stats().Evictions })
		s.slotrack.AddGaugeSource(srcCacheBytes, func() float64 { return float64(cache.SizeBytes()) })
	}
	pool := s.pool
	s.slotrack.AddGaugeSource(srcWorkerUtil, func() float64 {
		if w := pool.Workers(); w > 0 {
			return float64(pool.Busy()) / float64(w)
		}
		return 0
	})

	interval := max(s.col.Window()/8, 10*time.Millisecond)
	s.stopSLO = make(chan struct{})
	s.sloDone = make(chan struct{})
	// Ticker created here, not in the goroutine, so a test clock advanced
	// right after construction is guaranteed to reach it (same rule as the
	// janitor).
	go s.sloLoop(s.clk.NewTicker(interval))
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

// stageOf maps a ladder outcome to its SLO stage window.
func stageOf(out core.RunOutcome) slo.Stage {
	switch out.Stage {
	case core.StageSimilarity:
		return slo.StageSimilarity
	case core.StageCachedGood:
		return slo.StageCached
	case core.StagePartial:
		return slo.StageTruncated
	default:
		if out.Truncated {
			return slo.StageTruncated
		}
		return slo.StageExact
	}
}
