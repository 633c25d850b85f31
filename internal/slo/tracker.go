// The SLO tracker: declared targets evaluated against the collector's
// rolling windows on a periodic tick. Each tick samples the registered
// cumulative sources (differentiating them into windowed deltas), computes
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
func (r Report) SRT() Dist { return r.Phases[PhaseSRT.String()] }

const maxSamples = 64 // per-source sample ring (ticks retained)

type sourceSample struct {
	at  time.Time
	val float64
}

type source struct {
	name    string
	counter func() int64   // cumulative; windowed delta reported
	gauge   func() float64 // sampled; window mean reported
	ring    []sourceSample // newest last, len ≤ maxSamples
}

// windowed reduces the ring against the window [now-window, now]: counter
// sources report newest - oldest-in-window; gauge sources report the mean of
// in-window samples.
func (s *source) windowed(now time.Time, window time.Duration) (float64, bool) {
	cut := now.Add(-window)
	first := -1
	for i := range s.ring {
		if !s.ring[i].at.Before(cut) {
			first = i
			break
		}
	}
	if first < 0 {
		return 0, false
	}
	in := s.ring[first:]
	if len(in) == 0 {
		return 0, false
	}
	if s.counter != nil {
		// Delta from just before the window when available, so a window
		// fully covered by samples reports the true in-window delta.
		base := in[0].val
		if first > 0 {
			base = s.ring[first-1].val
		}
		return in[len(in)-1].val - base, true
	}
	var sum float64
	for _, smp := range in {
		sum += smp.val
	}
	return sum / float64(len(in)), true
}

// Tracker evaluates Targets against a Collector. Tick and Report are safe
// for concurrent use; AddCounterSource/AddGaugeSource must be called before
// the first Tick (construction-time wiring, like workpool.Pool.OnBatch).
type Tracker struct {
	col     *Collector
	targets Targets
	tracer  *trace.Tracer     // violation spans; nil-safe
	reg     *metrics.Registry // slo_* metrics; nil keeps the tracker standalone
	violCtr *metrics.Counter

	mu          sync.Mutex
	sources     []*source
	violations  int64
	violationNS int64 // cumulative nanoseconds spent violating
	violSince   time.Time
	lastTick    time.Time
}

// NewTracker wires a tracker over col. tracer and reg may be nil.
func NewTracker(col *Collector, t Targets, tracer *trace.Tracer, reg *metrics.Registry) *Tracker {
	counter := func(name string) *metrics.Counter {
		if reg == nil {
			return &metrics.Counter{}
		}
		return reg.Counter(name)
	}
	return &Tracker{
		col:     col,
		targets: t,
		tracer:  tracer,
		reg:     reg,
		violCtr: counter(metrics.CounterSLOViolations),
	}
}

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
	tk.sources = append(tk.sources, &source{name: name, counter: fn})
	tk.mu.Unlock()
}

// AddGaugeSource registers an instantaneous gauge to sample each tick; the
// report exposes its window mean under name.
func (tk *Tracker) AddGaugeSource(name string, fn func() float64) {
	tk.mu.Lock()
	tk.sources = append(tk.sources, &source{name: name, gauge: fn})
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
	for _, s := range tk.sources {
		var v float64
		if s.counter != nil {
			v = float64(s.counter())
		} else {
			v = s.gauge()
		}
		s.ring = append(s.ring, sourceSample{at: now, val: v})
		if len(s.ring) > maxSamples {
			s.ring = s.ring[len(s.ring)-maxSamples:]
		}
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
	col := tk.col
	r := Report{
		Enabled:  col.Enabled(),
		WindowMS: col.Window().Milliseconds(),
		Phases:   make(map[string]Dist, int(numPhases)),
		Stages:   make(map[string]Dist, int(numStages)),
		Rates:    make(map[string]RateInfo, int(numRates)),
		Sources:  map[string]float64{},
	}
	for p := Phase(0); p < numPhases; p++ {
		r.Phases[p.String()] = col.PhaseDist(p)
	}
	for s := Stage(0); s < numStages; s++ {
		r.Stages[s.String()] = col.StageDist(s)
	}
	winSec := col.Window().Seconds()
	for rt := Rate(0); rt < numRates; rt++ {
		n := col.RateCount(rt)
		info := RateInfo{Count: n}
		if winSec > 0 {
			info.PerSec = float64(n) / winSec
		}
		r.Rates[rt.String()] = info
	}
	admitted := r.Rates[RateAdmitted.String()].Count
	shed := r.Rates[RateShed.String()].Count
	if total := admitted + shed; total > 0 {
		r.ShedRate = float64(shed) / float64(total)
	}

	tk.mu.Lock()
	for _, s := range tk.sources {
		if v, ok := s.windowed(now, col.Window()); ok {
			r.Sources[s.name] = v
		}
	}
	tk.mu.Unlock()

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
