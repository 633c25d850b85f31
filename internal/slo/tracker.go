// The SLO tracker: declared targets evaluated against rolling windows of the
// metrics registry on a periodic tick. Each tick samples the registry's
// phase, stage and rate instruments and the registered sources, computes
// burn rates, and — while a target is violated — counts the violation and
// records a violation span into the trace journal so "when and why were we
// out of SLO" is answerable from the same surface as "why was that click
// slow".

package slo

import (
	"strconv"
	"sync"
	"time"

	"prague/internal/metrics"
	"prague/internal/trace"
)

// Targets declares the service-level objectives the tracker enforces. The
// zero value declares nothing: the tracker still produces windowed reports
// but never flags a violation.
type Targets struct {
	// P99SRT is the target 99th-percentile system response time over the
	// rolling window (0: no latency target).
	P99SRT time.Duration
	// MaxShedRate is the tolerated fraction of actions shed by admission
	// control over the rolling window, in [0,1] (0: no shed target).
	MaxShedRate float64
}

func (t Targets) zero() bool { return t.P99SRT <= 0 && t.MaxShedRate <= 0 }

// Report is a point-in-time view of the rolling windows plus the SLO
// evaluation — what /slo serves and praguecli slo renders.
type Report struct {
	Enabled  bool  `json:"enabled"`
	WindowMS int64 `json:"window_ms"`

	Phases map[string]Dist     `json:"phases,omitempty"`
	Stages map[string]Dist     `json:"stages,omitempty"`
	Rates  map[string]RateInfo `json:"rates,omitempty"`

	// ShedRate is shed/(admitted+shed) over the window; 0 with no traffic.
	ShedRate float64 `json:"shed_rate"`

	// Sources holds the sampled auxiliary signals: windowed deltas for
	// counter sources, window means for gauge sources, keyed by source name.
	Sources map[string]float64 `json:"sources,omitempty"`

	// SLO evaluation. Burn rates are observed/target (1.0 = exactly on
	// target, >1 = violating); 0 when the corresponding target is unset.
	P99TargetUS  int64   `json:"p99_target_us,omitempty"`
	MaxShedRate  float64 `json:"max_shed_rate,omitempty"`
	BurnP99      float64 `json:"burn_p99"`
	BurnShed     float64 `json:"burn_shed"`
	Violating    bool    `json:"violating"`
	Violations   int64   `json:"violations_total"`
	ViolationSec float64 `json:"violation_sec"`
}

// SRT returns the total-SRT phase distribution.
func (r Report) SRT() Dist { return r.Phases["srt"] }

// The registry instruments a report windows, under their report names.
var (
	phaseHists = [...][2]string{
		{"spig_build", metrics.HistSpigBuild},
		{"index_probe", metrics.HistPhasePrefix + trace.KindIndexProbe.String()},
		{"candcache", metrics.HistPhasePrefix + trace.KindCandFetch.String()},
		{"verify", metrics.HistPhasePrefix + trace.KindVerifyBatch.String()},
		{"srt", metrics.HistSRT},
	}
	stageHists = [...][2]string{
		{"exact", metrics.HistSRTExact},
		{"truncated", metrics.HistSRTTruncated},
		{"similarity", metrics.HistSRTSimilarity},
		{"cached", metrics.HistSRTCached},
	}
	rateCounters = [...][2]string{
		{"admitted", metrics.CounterAdmitted},
		{"shed", metrics.CounterOverloadShed},
	}
)

// ticksPerWindow is how many samples a window spans: a window's edge is one
// tick (window/ticksPerWindow) fine.
const ticksPerWindow = 8

// sampler is any series: Tick samples them all.
type sampler interface {
	sample(now time.Time, window time.Duration)
}

// Tracker windows the registry and evaluates Targets against the windows.
// Tick and Report are safe for concurrent use; AddCounterSource /
// AddGaugeSource must be called before the first Tick (construction-time
// wiring, like workpool.Pool.OnBatch). The first Tick is the baseline:
// observations before it fall outside every window.
type Tracker struct {
	window  time.Duration
	targets Targets
	tracer  *trace.Tracer // violation spans; nil-safe
	violCtr *metrics.Counter

	phases, stages []*series[metrics.Counts]
	rates          []*series[int64]

	mu          sync.Mutex
	all         []sampler
	counters    []*series[int64]
	gauges      []*series[float64]
	violations  int64
	violationNS int64 // cumulative nanoseconds spent violating
	violSince   time.Time
	lastTick    time.Time
}

// NewTracker windows reg's phase, stage and rate instruments over a rolling
// window (≤ 0: DefaultWindow; at least 80ms, so a tick covers ≥ 10ms) and
// evaluates t against them. tracer may be nil.
func NewTracker(reg *metrics.Registry, window time.Duration, t Targets, tracer *trace.Tracer) *Tracker {
	if window <= 0 {
		window = DefaultWindow
	}
	tk := &Tracker{
		window:  max(window, 80*time.Millisecond),
		targets: t,
		tracer:  tracer,
		violCtr: reg.Counter(metrics.CounterSLOViolations),
	}
	hists := func(names [][2]string) []*series[metrics.Counts] {
		out := make([]*series[metrics.Counts], len(names))
		for i, n := range names {
			out[i] = &series[metrics.Counts]{name: n[0], read: reg.Histogram(n[1]).Counts}
			tk.all = append(tk.all, out[i])
		}
		return out
	}
	tk.phases, tk.stages = hists(phaseHists[:]), hists(stageHists[:])
	for _, n := range rateCounters {
		s := &series[int64]{name: n[0], read: reg.Counter(n[1]).Value}
		tk.rates = append(tk.rates, s)
		tk.all = append(tk.all, s)
	}
	return tk
}

// TickInterval is the sampling period Tick expects: a window spans
// ticksPerWindow of them.
func (tk *Tracker) TickInterval() time.Duration { return tk.window / ticksPerWindow }

// Targets returns the declared targets.
func (tk *Tracker) Targets() Targets {
	if tk == nil {
		return Targets{}
	}
	return tk.targets
}

// AddCounterSource registers a cumulative counter to sample each tick; the
// report exposes its windowed delta under name.
func (tk *Tracker) AddCounterSource(name string, fn func() int64) {
	tk.mu.Lock()
	s := &series[int64]{name: name, read: fn}
	tk.counters, tk.all = append(tk.counters, s), append(tk.all, s)
	tk.mu.Unlock()
}

// AddGaugeSource registers an instantaneous gauge to sample each tick; the
// report exposes the mean of its in-window samples under name.
func (tk *Tracker) AddGaugeSource(name string, fn func() float64) {
	tk.mu.Lock()
	s := &series[float64]{name: name, read: fn}
	tk.gauges, tk.all = append(tk.gauges, s), append(tk.all, s)
	tk.mu.Unlock()
}

// Tick samples the sources at now, evaluates the targets, and returns the
// report. While violating, each tick increments slo_violations_total once at
// the violation's onset, accumulates violation time, and records a
// slo_violation span (with the offending windowed numbers as attributes)
// into the trace journal.
func (tk *Tracker) Tick(now time.Time) Report {
	if tk == nil {
		return Report{}
	}
	tk.mu.Lock()
	for _, s := range tk.all {
		s.sample(now, tk.window)
	}
	tk.mu.Unlock()

	r := tk.buildReport(now)

	if tk.targets.zero() {
		tk.mu.Lock()
		tk.lastTick = now
		tk.mu.Unlock()
		return r
	}

	tk.mu.Lock()
	wasViolating := !tk.violSince.IsZero()
	if r.Violating {
		if !wasViolating {
			tk.violSince = now
			tk.violations++
			tk.violCtr.Inc()
		}
		if !tk.lastTick.IsZero() && wasViolating {
			tk.violationNS += int64(now.Sub(tk.lastTick))
		}
	} else if wasViolating {
		if !tk.lastTick.IsZero() {
			tk.violationNS += int64(now.Sub(tk.lastTick))
		}
		tk.violSince = time.Time{}
	}
	tk.lastTick = now
	violations, violNS := tk.violations, tk.violationNS
	tk.mu.Unlock()

	r.Violations = violations
	r.ViolationSec = float64(violNS) / 1e9

	if r.Violating {
		// One violation span per violating tick: duration = the window's
		// observed p99 (so journal ordering by duration stays meaningful),
		// attributes = the SLO arithmetic.
		srt := r.SRT()
		tk.tracer.RecordEvent(trace.KindSLOViolation,
			time.Duration(srt.P99US)*time.Microsecond,
			map[string]string{
				"p99_us":        strconv.FormatInt(srt.P99US, 10),
				"p99_target_us": strconv.FormatInt(r.P99TargetUS, 10),
				"shed_rate":     strconv.FormatFloat(r.ShedRate, 'f', 4, 64),
				"max_shed_rate": strconv.FormatFloat(r.MaxShedRate, 'f', 4, 64),
				"burn_p99":      strconv.FormatFloat(r.BurnP99, 'f', 2, 64),
				"burn_shed":     strconv.FormatFloat(r.BurnShed, 'f', 2, 64),
			},
			map[string]int64{"window_srt_count": srt.Count})
	}
	return r
}

// Report builds the current report without sampling sources or mutating
// violation state — the read-only path behind /slo and praguecli slo.
func (tk *Tracker) Report(now time.Time) Report {
	if tk == nil {
		return Report{}
	}
	r := tk.buildReport(now)
	tk.mu.Lock()
	r.Violations = tk.violations
	r.ViolationSec = float64(tk.violationNS) / 1e9
	tk.mu.Unlock()
	return r
}

func (tk *Tracker) buildReport(now time.Time) Report {
	r := Report{
		Enabled:  true,
		WindowMS: tk.window.Milliseconds(),
		Phases:   make(map[string]Dist, len(tk.phases)),
		Stages:   make(map[string]Dist, len(tk.stages)),
		Rates:    make(map[string]RateInfo, len(tk.rates)),
		Sources:  map[string]float64{},
	}
	delta := func(s *series[int64]) int64 { return s.read() - s.base(now, tk.window) }
	tk.mu.Lock()
	for _, s := range tk.phases {
		r.Phases[s.name] = distOf(s.read().Sub(s.base(now, tk.window)))
	}
	for _, s := range tk.stages {
		r.Stages[s.name] = distOf(s.read().Sub(s.base(now, tk.window)))
	}
	for _, s := range tk.rates {
		n := delta(s)
		r.Rates[s.name] = RateInfo{Count: n, PerSec: float64(n) / tk.window.Seconds()}
	}
	for _, s := range tk.counters {
		r.Sources[s.name] = float64(delta(s))
	}
	for _, s := range tk.gauges {
		if v, ok := windowMean(s, now, tk.window); ok {
			r.Sources[s.name] = v
		}
	}
	tk.mu.Unlock()
	admitted, shed := r.Rates["admitted"].Count, r.Rates["shed"].Count
	if total := admitted + shed; total > 0 {
		r.ShedRate = float64(shed) / float64(total)
	}

	r.P99TargetUS = tk.targets.P99SRT.Microseconds()
	r.MaxShedRate = tk.targets.MaxShedRate
	srt := r.SRT()
	if r.P99TargetUS > 0 && srt.Count > 0 {
		r.BurnP99 = float64(srt.P99US) / float64(r.P99TargetUS)
	}
	if r.MaxShedRate > 0 {
		r.BurnShed = r.ShedRate / r.MaxShedRate
	}
	r.Violating = (r.P99TargetUS > 0 && srt.Count > 0 && srt.P99US > r.P99TargetUS) ||
		(r.MaxShedRate > 0 && r.ShedRate > r.MaxShedRate)
	return r
}

// windowMean averages a gauge's samples taken inside the window.
func windowMean(s *series[float64], now time.Time, window time.Duration) (float64, bool) {
	cut := now.Add(-window)
	var sum float64
	var n int
	for _, smp := range s.ring {
		if !smp.at.Before(cut) {
			sum += smp.v
			n++
		}
	}
	if n == 0 {
		return 0, false
	}
	return sum / float64(n), true
}
