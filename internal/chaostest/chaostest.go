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
//     oracle), flagged Truncated with sound membership and distance bounds,
//     or a typed error — never silently wrong,
//   - after the injector is disarmed, every session answers exactly again.
//
// Schedules are generated from a seed, so every failure reproduces: rerun
// the named subtest and the same faults fire at the same probe hits.
package chaostest

import (
	"context"
	"errors"
	"fmt"
	"math/rand"
	"sync"
	"testing"
	"time"

	"prague/internal/core"
	"prague/internal/faultinject"
	"prague/internal/graph"
	"prague/internal/index"
	"prague/internal/metrics"
	"prague/internal/mining"
	"prague/internal/naivescan"
	"prague/internal/query"
	"prague/internal/service"
)

// Config sizes a chaos run. Start from Quick.
type Config struct {
	Seed      int64
	Schedules int // seeded fault schedules (one service each)
	Sessions  int // concurrent sessions per schedule
	Steps     int // scripted operations per session
	DBSize    int // data graphs per database
	Sigma     int // subgraph distance threshold
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

var (
	nodeLabels = []string{"C", "C", "C", "N", "O", "S"}
	edgeLabels = []string{"", "", "", "1", "2"}
)

// Fixture is one immutable (database, index, oracle) triple shared by many
// schedules.
type Fixture struct {
	DB     []*graph.Graph
	Idx    *index.Set
	Oracle *naivescan.Engine
}

// BuildFixture mines a connected random molecule-like database (the same
// generator family as the differential harness).
func BuildFixture(tb testing.TB, seed int64, n int) *Fixture {
	tb.Helper()
	r := rand.New(rand.NewSource(seed))
	db := make([]*graph.Graph, 0, n)
	for i := 0; i < n; i++ {
		nodes := 4 + r.Intn(6)
		g := graph.New(i)
		for v := 0; v < nodes; v++ {
			g.AddNode(nodeLabels[r.Intn(len(nodeLabels))])
		}
		for v := 1; v < nodes; v++ {
			g.MustAddEdge(v, r.Intn(v))
		}
		for k := 0; k < r.Intn(3); k++ {
			u, v := r.Intn(nodes), r.Intn(nodes)
			if u != v && !g.HasEdge(u, v) {
				g.MustAddEdge(u, v)
			}
		}
		db = append(db, g)
	}
	res, err := mining.Mine(db, mining.Options{MinSupportRatio: 0.3, MaxSize: 6})
	if err != nil {
		tb.Fatal(err)
	}
	idx, err := index.Build(res, 0.3, 3)
	if err != nil {
		tb.Fatal(err)
	}
	oracle, err := naivescan.New(db, 2)
	if err != nil {
		tb.Fatal(err)
	}
	return &Fixture{DB: db, Idx: idx, Oracle: oracle}
}

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
	fixtures := []*Fixture{
		BuildFixture(t, cfg.Seed, cfg.DBSize),
		BuildFixture(t, cfg.Seed+7919, cfg.DBSize),
	}
	var mu sync.Mutex
	var tot Totals
	for i := 0; i < cfg.Schedules; i++ {
		i := i
		fx := fixtures[i%len(fixtures)]
		t.Run(fmt.Sprintf("schedule-%02d", i), func(t *testing.T) {
			st := runSchedule(t, cfg, fx, i)
			mu.Lock()
			tot.Runs += st.Runs
			tot.Degraded += st.Degraded
			tot.Shed += st.Shed
			tot.WorkerPanics += st.WorkerPanics
			tot.FaultsFired += st.FaultsFired
			mu.Unlock()
		})
	}
	return tot
}

// runSchedule builds one service under one fault schedule, drives the
// scripted sessions concurrently under a deadlock watchdog, then disarms the
// injector and requires every session to answer exactly again.
func runSchedule(t *testing.T, cfg Config, fx *Fixture, i int) Totals {
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
	svc, err := service.New(fx.DB, fx.Idx, opts...)
	if err != nil {
		t.Fatal(err)
	}
	defer svc.Close()

	drivers := make([]*driver, cfg.Sessions)
	for s := range drivers {
		drivers[s] = newDriver(t, fx, svc, cfg.Sigma, rand.New(rand.NewSource(cfg.Seed*1_000_000+int64(i)*1000+int64(s))))
	}

	// The chaos phase proper: each session scripted sequentially, sessions
	// concurrent with each other, the whole phase bounded by a watchdog (a
	// hung mutex or pool would otherwise stall the suite silently).
	done := make(chan struct{})
	go func() {
		defer close(done)
		var wg sync.WaitGroup
		for _, d := range drivers {
			d := d
			wg.Add(1)
			go func() {
				defer wg.Done()
				d.drive(cfg.Steps, sc.burst)
			}()
		}
		wg.Wait()
	}()
	select {
	case <-done:
	case <-time.After(2 * time.Minute):
		t.Fatalf("schedule %d (%v): deadlock — workload did not finish within the watchdog", i, sc)
	}
	if t.Failed() {
		return Totals{}
	}

	// Recovery phase: faults disarmed, every session must converge back to
	// an exact answer, and no session state may have been lost.
	inj.Disarm()
	for _, d := range drivers {
		d.assertMirror("after chaos phase")
		d.assertExactRecovery()
	}

	var tot Totals
	for _, d := range drivers {
		tot.Runs += d.runs
		tot.Degraded += d.degraded
	}
	snap := reg.Snapshot()
	tot.Shed = snap.Counters[metrics.CounterOverloadShed]
	tot.WorkerPanics = snap.Counters[metrics.CounterWorkerPanics]
	for _, site := range []faultinject.Site{faultinject.SiteVerify, faultinject.SiteCache, faultinject.SiteIndex} {
		tot.FaultsFired += inj.Fired(site)
	}
	return tot
}

// driver scripts one session and mirrors its query exactly; the mirror is
// both the op generator's source of valid moves and the "no lost session
// state" check.
type driver struct {
	t      *testing.T
	fx     *Fixture
	svc    *service.Service
	sess   *service.Session
	mirror *query.Query
	nodes  []int
	r      *rand.Rand
	sigma  int

	runs     int64
	degraded int64
}

func newDriver(t *testing.T, fx *Fixture, svc *service.Service, sigma int, r *rand.Rand) *driver {
	t.Helper()
	sess, err := svc.Create(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	d := &driver{t: t, fx: fx, svc: svc, sess: sess, mirror: query.New(), r: r, sigma: sigma}
	d.addNode()
	d.addNode()
	return d
}

func (d *driver) addNode() int {
	label := nodeLabels[d.r.Intn(len(nodeLabels))]
	id, err := d.sess.AddNode(label)
	if err != nil {
		d.t.Errorf("session %s: AddNode: %v", d.sess.ID(), err)
		return -1
	}
	if mid := d.mirror.AddNode(label); mid != id {
		d.t.Errorf("session %s: node id diverged: service %d, mirror %d", d.sess.ID(), id, mid)
	}
	d.nodes = append(d.nodes, id)
	return id
}

// typedActionErr: every failure of an evaluating action must be one of the
// robustness layer's typed errors (admission, deadline, injected fault,
// truncated verification) — anything else is a broken contract.
func typedActionErr(err error) bool {
	return errors.Is(err, service.ErrOverloaded) ||
		errors.Is(err, service.ErrServiceClosed) ||
		errors.Is(err, core.ErrShardUnavailable) ||
		errors.Is(err, core.ErrAwaitingChoice) ||
		errors.Is(err, core.ErrEmptyQuery) ||
		errors.Is(err, core.ErrBudgetExhausted) ||
		errors.Is(err, core.ErrVerifyFaults) ||
		errors.Is(err, faultinject.ErrInjected) ||
		errors.Is(err, context.DeadlineExceeded) ||
		errors.Is(err, context.Canceled)
}

// drive runs the scripted chaos workload: anchored edge adds, deletions of
// deletable steps, checked runs, and (optionally) concurrent run bursts.
func (d *driver) drive(steps int, burst bool) {
	ctx := context.Background()
	for k := 0; k < steps && !d.t.Failed(); k++ {
		switch op := d.r.Intn(10); {
		case op < 5 || d.mirror.Size() == 0:
			d.opAdd(ctx)
		case op < 7 && d.mirror.Size() >= 2:
			d.opDelete(ctx)
		case op == 7 && burst:
			d.opBurst(ctx)
		default:
			d.checkedRun(ctx)
		}
		d.assertMirror(fmt.Sprintf("after op %d", k))
	}
	d.checkedRun(ctx)
}

// opAdd mirrors difftest's anchored add: pick an endpoint already in the
// fragment so the operation is structurally valid, then reconcile the mirror
// with whatever the service actually did (a faulted add may leave the edge
// drawn with its evaluation incomplete, or not drawn at all).
func (d *driver) opAdd(ctx context.Context) {
	var u int
	if d.mirror.Size() == 0 {
		u = d.nodes[d.r.Intn(len(d.nodes))]
	} else {
		st := d.mirror.Steps()
		qe, _ := d.mirror.Edge(st[d.r.Intn(len(st))])
		if d.r.Intn(2) == 0 {
			u = qe.A
		} else {
			u = qe.B
		}
	}
	var v int
	if d.r.Intn(3) == 0 && len(d.nodes) > 2 {
		v = d.nodes[d.r.Intn(len(d.nodes))]
	} else {
		v = d.addNode()
	}
	label := edgeLabels[d.r.Intn(len(edgeLabels))]
	undrawn := d.mirror.Clone()
	step, merr := d.mirror.AddLabeledEdge(u, v, label)
	if merr != nil {
		return // structurally invalid (duplicate, self-loop): skip the op
	}
	out, err := d.sess.AddLabeledEdge(ctx, u, v, label)
	switch {
	case err == nil:
		if out.Step != step {
			d.t.Errorf("session %s: step diverged: service %d, mirror %d", d.sess.ID(), out.Step, step)
		}
		if out.NeedsChoice {
			d.resolveChoice(ctx)
		}
	case typedActionErr(err):
		// The edge may or may not have been drawn before the fault hit;
		// reconcile the mirror with the service's actual state. An edge shed
		// or timed out before the engine drew it consumed no step label, so
		// the mirror's label counter rolls back with it.
		if !d.serviceHasStep(step) {
			d.mirror = undrawn
		}
	default:
		d.t.Errorf("session %s: AddEdge returned untyped error: %v", d.sess.ID(), err)
	}
}

func (d *driver) opDelete(ctx context.Context) {
	var deletable []int
	for _, s := range d.mirror.Steps() {
		if d.mirror.CanDelete(s) {
			deletable = append(deletable, s)
		}
	}
	if len(deletable) == 0 {
		return
	}
	step := deletable[d.r.Intn(len(deletable))]
	_, err := d.sess.DeleteEdge(ctx, step)
	switch {
	case err == nil:
		if derr := d.mirror.DeleteEdge(step); derr != nil {
			d.t.Errorf("session %s: mirror delete of step %d failed after service accepted: %v", d.sess.ID(), step, derr)
		}
	case typedActionErr(err):
		if !d.serviceHasStep(step) { // deleted before the fault hit
			if derr := d.mirror.DeleteEdge(step); derr != nil {
				d.t.Errorf("session %s: cannot reconcile mirror after faulted delete: %v", d.sess.ID(), derr)
			}
		}
	default:
		d.t.Errorf("session %s: DeleteEdge returned untyped error: %v", d.sess.ID(), err)
	}
}

// opBurst fires concurrent Runs at the session to provoke admission
// shedding and mutex contention; every outcome must be a typed error or a
// success (the sequential checkedRun calls validate answer soundness).
func (d *driver) opBurst(ctx context.Context) {
	var wg sync.WaitGroup
	for i := 0; i < 3; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			if _, err := d.sess.Run(ctx); err != nil && !typedActionErr(err) {
				d.t.Errorf("session %s: burst Run returned untyped error: %v", d.sess.ID(), err)
			}
		}()
	}
	wg.Wait()
}

func (d *driver) resolveChoice(ctx context.Context) {
	if _, err := d.sess.ChooseSimilarity(ctx); err != nil && !typedActionErr(err) {
		d.t.Errorf("session %s: ChooseSimilarity returned untyped error: %v", d.sess.ID(), err)
	}
}

// serviceHasStep asks the service whether the step label is currently drawn.
func (d *driver) serviceHasStep(step int) bool {
	info, err := d.sess.Describe()
	if err != nil {
		d.t.Errorf("session %s: Describe: %v", d.sess.ID(), err)
		return false
	}
	for _, s := range info.Steps {
		if s == step {
			return true
		}
	}
	return false
}

// assertMirror is the "no lost session state" invariant: the service's view
// of the query must equal the driver's mirror after every operation, no
// matter which faults fired.
func (d *driver) assertMirror(when string) {
	info, err := d.sess.Describe()
	if err != nil {
		d.t.Errorf("session %s: Describe %s: %v", d.sess.ID(), when, err)
		return
	}
	ms := d.mirror.Steps()
	if len(info.Steps) != len(ms) {
		d.t.Errorf("session %s: %s: steps diverged: service %v, mirror %v", d.sess.ID(), when, info.Steps, ms)
		return
	}
	for i := range ms {
		if info.Steps[i] != ms[i] {
			d.t.Errorf("session %s: %s: steps diverged: service %v, mirror %v", d.sess.ID(), when, info.Steps, ms)
			return
		}
	}
}

// checkedRun is the core invariant: every Run outcome is complete, flagged
// Truncated with sound bounds, or a typed error.
func (d *driver) checkedRun(ctx context.Context) {
	out, err := d.sess.RunDetailed(ctx)
	d.runs++
	if err != nil {
		if errors.Is(err, core.ErrAwaitingChoice) {
			d.resolveChoice(ctx)
			return
		}
		if !typedActionErr(err) {
			d.t.Errorf("session %s: Run returned untyped error: %v", d.sess.ID(), err)
		}
		return
	}
	info, ierr := d.sess.Describe()
	if ierr != nil {
		d.t.Errorf("session %s: Describe after Run: %v", d.sess.ID(), ierr)
		return
	}
	qg, gerr := d.sess.QueryGraph()
	if gerr != nil || qg == nil {
		d.t.Errorf("session %s: QueryGraph after successful Run: graph=%v err=%v", d.sess.ID(), qg, gerr)
		return
	}
	if out.Stage != core.StageFull {
		d.degraded++
	}
	d.verifyOutcome(out, info.SimilarityMode, qg, "chaos")
}

// verifyOutcome checks one Run answer against the oracle for the query the
// session actually holds.
func (d *driver) verifyOutcome(out core.RunOutcome, simMode bool, qg *graph.Graph, phase string) {
	CheckOutcome(d.t, d.fx, fmt.Sprintf("session %s (%s)", d.sess.ID(), phase), out, simMode, qg, d.sigma)
}

// CheckOutcome asserts the ladder contract for one Run answer: StageFull is
// exactly the oracle, cached_good only has to be flagged, and every other
// degraded stage is a flagged sound subset — true members with valid
// distance upper bounds. The fuzz target shares this with the scripted
// schedules.
func CheckOutcome(tb testing.TB, fx *Fixture, who string, out core.RunOutcome, simMode bool, qg *graph.Graph, sigma int) {
	tb.Helper()
	switch {
	case out.Stage == core.StageFull:
		if out.Truncated || out.Faults != 0 {
			tb.Errorf("%s: StageFull but truncated=%v faults=%d", who, out.Truncated, out.Faults)
		}
		if simMode {
			want, _ := fx.Oracle.Similarity(qg, sigma)
			if len(out.Results) != len(want) {
				tb.Errorf("%s: full similarity answer has %d results, oracle %d\nquery: %v",
					who, len(out.Results), len(want), qg)
				return
			}
			wantDist := make(map[int]int, len(want))
			for _, w := range want {
				wantDist[w.GraphID] = w.Distance
			}
			for _, g := range out.Results {
				if w, ok := wantDist[g.GraphID]; !ok || w != g.Distance {
					tb.Errorf("%s: full answer has (%d,%d), oracle wants distance %d (present=%v)",
						who, g.GraphID, g.Distance, w, ok)
				}
			}
		} else {
			want, _ := fx.Oracle.Containment(qg)
			if len(out.Results) != len(want) {
				tb.Errorf("%s: full containment answer has %d results, oracle %d\nquery: %v",
					who, len(out.Results), len(want), qg)
				return
			}
			inOracle := make(map[int]bool, len(want))
			for _, w := range want {
				inOracle[w] = true
			}
			for _, g := range out.Results {
				if !inOracle[g.GraphID] || g.Distance != 0 {
					tb.Errorf("%s: full containment answer has (%d,%d) not in oracle",
						who, g.GraphID, g.Distance)
				}
			}
		}
	case out.Stage == core.StageCachedGood:
		// Last known good may describe an older query revision — by
		// contract it only has to be flagged.
		if !out.Truncated {
			tb.Errorf("%s: cached_good answer not flagged Truncated", who)
		}
	default: // StagePartial or StageSimilarity: sound subset of the truth
		if !out.Truncated {
			tb.Errorf("%s: degraded stage %v not flagged Truncated", who, out.Stage)
		}
		if simMode {
			want, _ := fx.Oracle.Similarity(qg, sigma)
			wantDist := make(map[int]int, len(want))
			for _, w := range want {
				wantDist[w.GraphID] = w.Distance
			}
			for _, g := range out.Results {
				w, ok := wantDist[g.GraphID]
				if !ok {
					tb.Errorf("%s: truncated answer reports %d, not a true similarity answer\nquery: %v",
						who, g.GraphID, qg)
				} else if g.Distance < w {
					tb.Errorf("%s: truncated answer reports %d at distance %d < true %d",
						who, g.GraphID, g.Distance, w)
				}
			}
		} else {
			want, _ := fx.Oracle.Containment(qg)
			inOracle := make(map[int]bool, len(want))
			for _, w := range want {
				inOracle[w] = true
			}
			for _, g := range out.Results {
				if !inOracle[g.GraphID] || g.Distance != 0 {
					tb.Errorf("%s: truncated containment answer has (%d,%d) not in oracle",
						who, g.GraphID, g.Distance)
				}
			}
		}
	}
}

// assertExactRecovery: with the injector disarmed the session must converge
// back to a StageFull answer that matches the oracle exactly. A few retries
// are allowed — the first post-chaos Run may still degrade on a tight
// deadline before caches rewarm.
func (d *driver) assertExactRecovery() {
	ctx := context.Background()
	info, err := d.sess.Describe()
	if err != nil {
		d.t.Errorf("session %s: Describe in recovery: %v", d.sess.ID(), err)
		return
	}
	if info.QuerySize == 0 {
		return // every add was shed or faulted away; nothing to answer
	}
	if info.AwaitingChoice {
		d.resolveChoice(ctx)
	}
	for attempt := 0; attempt < 8; attempt++ {
		out, err := d.sess.RunDetailed(ctx)
		if err != nil {
			if errors.Is(err, core.ErrAwaitingChoice) {
				d.resolveChoice(ctx)
				continue
			}
			if typedActionErr(err) {
				continue
			}
			d.t.Errorf("session %s: recovery Run returned untyped error: %v", d.sess.ID(), err)
			return
		}
		if out.Stage != core.StageFull {
			continue
		}
		info, ierr := d.sess.Describe()
		qg, gerr := d.sess.QueryGraph()
		if ierr != nil || gerr != nil || qg == nil {
			d.t.Errorf("session %s: recovery state read failed: %v %v", d.sess.ID(), ierr, gerr)
			return
		}
		d.verifyOutcome(out, info.SimilarityMode, qg, "recovery")
		return
	}
	d.t.Errorf("session %s: never produced a StageFull answer after faults were disarmed", d.sess.ID())
}
