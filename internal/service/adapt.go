// The service side of the SLO telemetry and adaptive runtime: construction
// of the rolling-window collector and tracker, the trace→window bridge, the
// three knob controllers (admission MaxInFlight, workpool size, candidate-
// cache byte budget), and the tick loop that drives them. Data flow:
//
//	serving path ──observe──▶ slo.Collector (rolling windows)
//	trace spans  ──bridge───▶ slo.Collector (trace-only phases)
//	cumulative counters ──sample──▶ slo.Tracker (windowed deltas)
//	                                  │ tick
//	                                  ▼
//	                             slo.Report ──▶ controllers ──set──▶ knobs
//	                                  │                        │
//	                                  ▼                        ▼
//	                         /slo, praguecli slo       adapt_* metrics,
//	                                                   adapt trace spans
//
// Controllers read nothing but the Report, so their trajectories are a pure
// function of the windowed telemetry — deterministic under clock.Fake.

package service

import (
	"time"

	"prague/internal/clock"
	"prague/internal/core"
	"prague/internal/metrics"
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
	return o.SLO != (slo.Targets{}) || o.SLOWindow > 0 || o.Adaptive
}

// initSLO builds the collector, tracker, sources, and controllers, wires the
// trace-span bridge, and starts the tick loop. Called once from New, before
// the ops server (which serves SLOReport) binds.
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

	s.controllers = s.buildControllers()
	// Publish each knob's starting value so the adapt_* gauges exist (and
	// read correctly) before the first adjustment.
	for _, c := range s.controllers {
		s.reg.Counter(metrics.GaugeAdaptPrefix + c.Name).Set(c.Get())
	}

	interval := s.opt.AdaptInterval
	if interval <= 0 {
		interval = s.col.Window() / 8
	}
	if interval < 10*time.Millisecond {
		interval = 10 * time.Millisecond
	}
	s.stopAdapt = make(chan struct{})
	s.adaptDone = make(chan struct{})
	// Ticker created here, not in the goroutine, so a test clock advanced
	// right after New is guaranteed to reach it (same rule as the janitor).
	go s.adaptLoop(s.clk.NewTicker(interval))
}

// buildControllers binds the slo policies to this service's knobs. The
// controllers are built whenever the SLO telemetry is on — their knob
// readouts feed the report — but Decide/Set only run under WithAdaptive.
func (s *Service) buildControllers() []*slo.Controller {
	var cs []*slo.Controller

	if init := int64(s.opt.MaxInFlight); init > 0 {
		cs = append(cs, &slo.Controller{
			Knob: slo.Knob{
				Name: "max_inflight",
				Min:  maxI64(1, init/4),
				Max:  init * 16,
				Get:  s.inflightLimit.Load,
				Set:  s.inflightLimit.Store,
			},
			Decide: slo.InFlightPolicy(s.opt.SLO),
		})
	}

	poolInit := int64(s.pool.Workers())
	cs = append(cs, &slo.Controller{
		Knob: slo.Knob{
			Name: "workpool_size",
			Min:  1,
			Max:  maxI64(4*poolInit, poolInit+2),
			Get:  func() int64 { return int64(s.pool.Workers()) },
			Set:  func(v int64) { s.pool.Resize(int(v)) },
		},
		Decide: slo.WorkerPolicy(s.opt.SLO, srcWorkerUtil),
	})

	if s.cache != nil {
		budget := s.cache.Budget()
		cs = append(cs, &slo.Controller{
			Knob: slo.Knob{
				Name: "cache_bytes",
				Min:  maxI64(1, budget/4),
				Max:  budget * 8,
				Get:  s.cache.Budget,
				Set:  s.cache.SetBudget,
			},
			Decide: slo.CachePolicy(slo.CacheSources{
				Hits:      srcCacheHits,
				Misses:    srcCacheMisses,
				Evictions: srcCacheEvictions,
				Bytes:     srcCacheBytes,
			}),
		})
	}
	return cs
}

func (s *Service) adaptLoop(t clock.Ticker) {
	defer close(s.adaptDone)
	defer t.Stop()
	for {
		select {
		case <-s.stopAdapt:
			return
		case <-t.C():
			s.adaptTick()
		}
	}
}

// adaptTick runs one tracker tick and, under WithAdaptive, one decision
// cycle per controller. Exposed to tests (same package) so controller
// trajectories can be driven tick by tick under clock.Fake.
func (s *Service) adaptTick() {
	rep := s.slotrack.Tick(s.clk.Now())
	if !s.opt.Adaptive {
		return
	}
	for _, c := range s.controllers {
		c.Apply(rep, s.reg, s.tracer)
	}
}

// SLOReport returns the rolling-window SLO report: phase/stage windows,
// rates, burn rates, violation totals, and current controller knob values.
// The zero Report (Enabled false) is returned when the SLO telemetry is off.
func (s *Service) SLOReport() slo.Report {
	if s.slotrack == nil {
		return slo.Report{}
	}
	r := s.slotrack.Report(s.clk.Now())
	if len(s.controllers) > 0 {
		r.Controllers = make(map[string]int64, len(s.controllers))
		for _, c := range s.controllers {
			r.Controllers[c.Name] = c.Get()
		}
	}
	return r
}

// SLOTargets returns the declared targets (zero when none were declared).
func (s *Service) SLOTargets() slo.Targets { return s.slotrack.Targets() }

// MaxInFlight returns the current global admission bound (0: unlimited).
// Under WithAdaptive the admission controller moves it at runtime.
func (s *Service) MaxInFlight() int { return int(s.inflightLimit.Load()) }

// SetMaxInFlight overrides the global admission bound at runtime (0 or
// negative: unlimited). The adaptive controller — when enabled — keeps
// adjusting from the new value.
func (s *Service) SetMaxInFlight(n int) {
	if n < 0 {
		n = 0
	}
	s.inflightLimit.Store(int64(n))
}

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

func maxI64(a, b int64) int64 {
	if a > b {
		return a
	}
	return b
}
