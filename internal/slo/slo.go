// Package slo is PRAGUE's SLO telemetry layer: rolling-window views of the
// metrics registry — latency per evaluation phase and per degradation-ladder
// outcome stage, admitted/shed event rates — and a tracker that turns
// declared targets (p99 SRT, max shed rate) into burn rates and violation
// spans. The service serves the result on /slo; nothing in it moves a
// runtime setting.
//
// The layer keeps no buckets of its own. The serving path observes each
// measurement once, into a cumulative metrics.Histogram or Counter; the
// Tracker samples those on its tick, and a window is the difference between
// the current value and the sample taken at least one window ago
// (metrics.Counts.Sub for histograms). That puts the cost on the tick
// (O(sources) per interval), not on the serving path.
package slo

import (
	"time"

	"prague/internal/metrics"
)

// DefaultWindow is the rolling-window span when WithSLO is used without an
// explicit window.
const DefaultWindow = 5 * time.Second

// Dist is one window's latency distribution: observation count and
// interpolated quantiles. All durations are microseconds so the struct
// JSON-marshals without float drift.
type Dist struct {
	Count  int64 `json:"count"`
	P50US  int64 `json:"p50_us"`
	P95US  int64 `json:"p95_us"`
	P99US  int64 `json:"p99_us"`
	MeanUS int64 `json:"mean_us"`
	MaxUS  int64 `json:"max_us"`
}

// distOf summarizes one window's histogram counts.
func distOf(c metrics.Counts) Dist {
	n := c.N()
	if n == 0 {
		return Dist{}
	}
	return Dist{
		Count:  n,
		P50US:  c.Quantile(0.50).Microseconds(),
		P95US:  c.Quantile(0.95).Microseconds(),
		P99US:  c.Quantile(0.99).Microseconds(),
		MeanUS: c.SumNS / n / 1e3,
		MaxUS:  c.MaxNS / 1e3,
	}
}

// RateInfo is one windowed event count.
type RateInfo struct {
	Count  int64   `json:"count"`
	PerSec float64 `json:"per_sec"`
}

type sample[T any] struct {
	at time.Time
	v  T
}

// series is one sampled source: its reader and the samples the tracker's
// ticks took of it, oldest first.
type series[T any] struct {
	name string
	read func() T
	ring []sample[T]
}

// sample appends the current value and drops the samples no window ending
// now or later starts from: all but the newest one at least a window old.
func (s *series[T]) sample(now time.Time, window time.Duration) {
	s.ring = append(s.ring, sample[T]{at: now, v: s.read()})
	cut := now.Add(-window)
	i := 0
	for i+1 < len(s.ring) && !s.ring[i+1].at.After(cut) {
		i++
	}
	s.ring = s.ring[i:]
}

// base returns the window's starting value: the newest sample taken at
// least window before now, else the oldest sample (the window then reaches
// back to the first tick), else the zero value.
func (s *series[T]) base(now time.Time, window time.Duration) T {
	var b T
	cut := now.Add(-window)
	for i, smp := range s.ring {
		if i > 0 && smp.at.After(cut) {
			break
		}
		b = smp.v
	}
	return b
}
