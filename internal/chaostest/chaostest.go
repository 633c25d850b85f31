// Package chaostest is the deterministic chaos harness: it replays scripted
// multi-session workloads through the concurrent service while a seeded
// fault injector fails, delays, and panics the engine's verification, cache,
// and index probes — and checks on every Run that the robustness contract
// held. The contract under chaos:
//
//   - no deadlock (a watchdog bounds every schedule),
//   - no lost session state (the service's view of each query always equals
//     the driver's mirror),
//   - every Run answer is either complete (StageFull, exactly the naivescan
//     oracle over the epoch it pinned), flagged Truncated with sound
//     membership and distance bounds, or a typed error — where the schedule
//     can fail, time out or shed an action — never silently wrong,
//   - after the injector is disarmed, every session answers exactly again.
//
// Schedules are generated from a seed, so every failure reproduces: rerun
// the named subtest and the same faults fire at the same probe hits. The
// sessions draw their canvas actions from difftest's Script, the generator
// the differential harness replays, and one driver (driver.go) runs them for
// every suite here: fault chaos, mutation chaos and network chaos.
package chaostest

import (
	"fmt"
	"math/rand"
	"testing"
	"time"

	"prague/internal/core"
	"prague/internal/difftest"
	"prague/internal/faultinject"
	"prague/internal/graph"
	"prague/internal/index"
	"prague/internal/metrics"
	"prague/internal/naivescan"
	"prague/internal/service"
	"prague/internal/store"
)

// Config sizes a chaos run. Start from Quick, QuickMutation or QuickNetwork.
type Config struct {
	Seed      int64
	Schedules int // seeded schedules (one service each)
	Sessions  int // concurrent sessions per schedule
	Steps     int // scripted operations per session
	DBSize    int // data graphs per database
	Sigma     int // subgraph distance threshold
	Mutations int // online mutations streamed per mutating schedule
}

// Quick is the configuration run under plain `go test` (and `-race` in the
// verification gate): 50 seeded fault schedules, three concurrent sessions
// each.
func Quick() Config {
	return Config{Seed: 7, Schedules: 50, Sessions: 3, Steps: 8, DBSize: 36, Sigma: 2}
}

// Totals aggregates what the chaos run observed across all schedules, so
// callers can assert the machinery was actually exercised (a chaos suite
// whose faults never fire proves nothing).
type Totals struct {
	Runs         int64 // checked Run invocations
	Degraded     int64 // runs that answered below StageFull
	Shed         int64 // actions rejected by admission control
	WorkerPanics int64 // verification panics recovered by the pool
	FaultsFired  int64 // injector rules that fired
}

// Fixture is one immutable (database, index, oracle) triple shared by many
// schedules. A mutating schedule's epoch history holds one per epoch, with
// no index.
type Fixture struct {
	DB     []*graph.Graph
	Idx    *index.Set
	Oracle *naivescan.Engine
}

// BuildFixture mines a connected random molecule-like database: the
// differential harness's RandomDatabase, with an oracle over it.
func BuildFixture(tb testing.TB, seed int64, n int) *Fixture {
	tb.Helper()
	db, idx := difftest.RandomDatabase(tb, seed, n)
	oracle, err := naivescan.New(db, 2)
	if err != nil {
		tb.Fatal(err)
	}
	return &Fixture{DB: db, Idx: idx, Oracle: oracle}
}

// eachSchedule runs cfg.Schedules subtests named prefix-NN, one after
// another, alternating two fixtures mined from cfg.Seed and cfg.Seed+7919.
func eachSchedule(t *testing.T, cfg Config, prefix string, run func(t *testing.T, fx *Fixture, i int)) {
	t.Helper()
	fixtures := [2]*Fixture{BuildFixture(t, cfg.Seed, cfg.DBSize), BuildFixture(t, cfg.Seed+7919, cfg.DBSize)}
	for i := 0; i < cfg.Schedules; i++ {
		t.Run(fmt.Sprintf("%s-%02d", prefix, i), func(t *testing.T) { run(t, fixtures[i%2], i) })
	}
}

// The sessions' op mixes: half anchored adds, a fifth deletions, the rest
// checked Runs — one of which a burst schedule spends on a concurrent burst.
var (
	sessionMix = difftest.Mix{Add: 5, Delete: 2, Check: 3}
	burstMix   = difftest.Mix{Add: 5, Delete: 2, Burst: 1, Check: 2}
)

// schedule is one deterministic chaos scenario: which faults are armed and
// how tight the service's protection knobs are.
type schedule struct {
	rules        map[faultinject.Site]faultinject.Rule
	deadline     time.Duration
	maxInFlight  int
	sessionQueue int
	cacheBytes   int64
	burst        bool // fire concurrent Runs to provoke shedding
}

// typed reports whether the schedule can fail, time out or shed an action,
// which is when a typed error is an acceptable outcome. A schedule of
// latency-only faults with no deadline and no admission bound accepts none.
func (sc schedule) typed() bool {
	return sc.deadline > 0 || sc.maxInFlight > 0 || sc.sessionQueue > 0 || failing(sc.rules)
}

// failing reports whether any rule can fail an action (an error or a
// panic) rather than only delay it.
func failing(rules ...map[faultinject.Site]faultinject.Rule) bool {
	for _, rs := range rules {
		for _, r := range rs {
			if r.Err || r.Panic {
				return true
			}
		}
	}
	return false
}

func (sc schedule) String() string {
	return fmt.Sprintf("rules=%d deadline=%v inflight=%d queue=%d burst=%v",
		len(sc.rules), sc.deadline, sc.maxInFlight, sc.sessionQueue, sc.burst)
}

// genSchedule derives schedule i deterministically. Scenario kinds cycle so
// a 50-schedule run hits every fault family several times: verification
// errors, verification panics, latency under a deadline, cache/index faults,
// an overload burst, and an everything-at-once mix.
func genSchedule(i int, r *rand.Rand) schedule {
	sc := schedule{
		rules:      map[faultinject.Site]faultinject.Rule{},
		cacheBytes: 1 << 20,
	}
	if r.Intn(3) == 0 {
		sc.cacheBytes = 0 // exercise the uncached paths under faults too
	}
	switch i % 6 {
	case 0: // injected verification errors
		sc.rules[faultinject.SiteVerify] = faultinject.Rule{Every: 1 + r.Intn(3), Err: true}
	case 1: // verification panics, recovered per candidate by the pool
		sc.rules[faultinject.SiteVerify] = faultinject.Rule{Every: 1 + r.Intn(4), Panic: true}
	case 2: // slow verification under a per-action deadline: the ladder fires
		sc.rules[faultinject.SiteVerify] = faultinject.Rule{
			Every: 1 + r.Intn(2), Latency: time.Duration(200+r.Intn(800)) * time.Microsecond,
		}
		sc.deadline = time.Duration(4+r.Intn(12)) * time.Millisecond
	case 3: // cache and index probe faults: cost degrades, answers must not
		sc.rules[faultinject.SiteCache] = faultinject.Rule{Every: 1 + r.Intn(2), Err: true}
		sc.rules[faultinject.SiteIndex] = faultinject.Rule{Every: 1 + r.Intn(3), Err: true}
	case 4: // overload: tiny admission bounds plus concurrent run bursts
		sc.maxInFlight = 1 + r.Intn(2)
		sc.sessionQueue = 1
		sc.burst = true
		// Slow verification stretches each admitted Run so the burst's
		// concurrent attempts reliably collide with it and shed.
		sc.rules[faultinject.SiteVerify] = faultinject.Rule{
			Every: 1, Latency: 500 * time.Microsecond, Err: r.Intn(2) == 0,
		}
	default: // everything at once
		sc.rules[faultinject.SiteVerify] = faultinject.Rule{Every: 2 + r.Intn(3), Panic: r.Intn(2) == 0, Err: true}
		sc.rules[faultinject.SiteCache] = faultinject.Rule{Every: 2 + r.Intn(2), Err: true}
		sc.rules[faultinject.SiteIndex] = faultinject.Rule{Every: 2 + r.Intn(3), Err: true}
		sc.deadline = time.Duration(8+r.Intn(16)) * time.Millisecond
		sc.maxInFlight = 2 + r.Intn(3)
		sc.burst = r.Intn(2) == 0
	}
	return sc
}

// Run executes cfg.Schedules chaos schedules as subtests and returns the
// aggregate Totals. Any invariant violation fails t.
func Run(t *testing.T, cfg Config) Totals {
	t.Helper()
	var tot Totals
	eachSchedule(t, cfg, "schedule", func(t *testing.T, fx *Fixture, i int) {
		runSchedule(t, cfg, fx, i, &tot)
	})
	return tot
}

// runSchedule builds one service under one fault schedule, drives the
// scripted sessions, then disarms the injector and requires every session
// to answer exactly again.
func runSchedule(t *testing.T, cfg Config, fx *Fixture, i int, tot *Totals) {
	t.Helper()
	r := rand.New(rand.NewSource(cfg.Seed*1000 + int64(i)))
	sc := genSchedule(i, r)
	inj := faultinject.New()
	for site, rule := range sc.rules {
		inj.Set(site, rule)
	}
	reg := metrics.NewRegistry()
	opts := []service.Option{
		service.WithSigma(cfg.Sigma),
		service.WithVerifyWorkers(2),
		service.WithMetrics(reg),
		service.WithCandidateCache(sc.cacheBytes),
		service.WithFaultInjection(inj),
		service.WithTracing(true),
	}
	if sc.deadline > 0 {
		opts = append(opts, service.WithActionDeadline(sc.deadline))
	}
	if sc.maxInFlight > 0 {
		opts = append(opts, service.WithMaxInFlight(sc.maxInFlight))
	}
	if sc.sessionQueue > 0 {
		opts = append(opts, service.WithSessionQueue(sc.sessionQueue))
	}
	st, err := store.NewSharded(fx.DB, fx.Idx, 1)
	if err != nil {
		t.Fatal(err)
	}
	svc, err := service.NewFromStore(st, opts...)
	if err != nil {
		t.Fatal(err)
	}
	defer svc.Close()

	mix := sessionMix
	if sc.burst {
		mix = burstMix
	}
	w := workload{svc: svc, st: st, fx: fx, mix: mix, typed: sc.typed(), disarm: inj.Disarm}
	got, ok := w.run(t, cfg, i, sc)
	if !ok {
		return
	}
	snap := reg.Snapshot()
	tot.Runs += got.runs
	tot.Degraded += got.degraded
	tot.Shed += snap.Counters[metrics.CounterOverloadShed]
	tot.WorkerPanics += snap.Counters[metrics.CounterWorkerPanics]
	for _, site := range []faultinject.Site{faultinject.SiteVerify, faultinject.SiteCache, faultinject.SiteIndex} {
		tot.FaultsFired += inj.Fired(site)
	}
}

// CheckOutcome asserts the ladder contract for one Run answer: StageFull is
// exactly the oracle, cached_good only has to be flagged, and every other
// degraded stage is a flagged sound subset — true members with valid
// distance upper bounds (containment members at distance 0). The fuzz
// target shares this with the scripted schedules.
func CheckOutcome(tb testing.TB, fx *Fixture, who string, out core.RunOutcome, simMode bool, qg *graph.Graph, sigma int) {
	tb.Helper()
	if out.Stage == core.StageCachedGood {
		// Last known good may describe an older query revision — by
		// contract it only has to be flagged.
		if !out.Truncated {
			tb.Errorf("%s: cached_good answer not flagged Truncated", who)
		}
		return
	}
	full := out.Stage == core.StageFull
	if full && (out.Truncated || out.Faults != 0) {
		tb.Errorf("%s: StageFull but truncated=%v faults=%d", who, out.Truncated, out.Faults)
	}
	if !full && !out.Truncated {
		tb.Errorf("%s: degraded stage %v not flagged Truncated", who, out.Stage)
	}
	// want maps every true answer to its distance.
	want := map[int]int{}
	if simMode {
		res, _ := fx.Oracle.Similarity(qg, sigma)
		for _, w := range res {
			want[w.GraphID] = w.Distance
		}
	} else {
		ids, _ := fx.Oracle.Containment(qg)
		for _, id := range ids {
			want[id] = 0
		}
	}
	if full && len(out.Results) != len(want) {
		tb.Errorf("%s: full answer (similarity=%v) has %d results, oracle %d\nquery: %v",
			who, simMode, len(out.Results), len(want), qg)
		return
	}
	for _, g := range out.Results {
		w, ok := want[g.GraphID]
		switch {
		case !ok:
			tb.Errorf("%s: stage %v answer reports %d, not a true answer (similarity=%v)\nquery: %v",
				who, out.Stage, g.GraphID, simMode, qg)
		case (full || !simMode) && g.Distance != w:
			tb.Errorf("%s: stage %v answer has (%d,%d), oracle wants distance %d", who, out.Stage, g.GraphID, g.Distance, w)
		case g.Distance < w:
			tb.Errorf("%s: truncated answer reports %d at distance %d < true %d", who, g.GraphID, g.Distance, w)
		}
	}
}
