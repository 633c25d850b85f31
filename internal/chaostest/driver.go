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
	"prague/internal/difftest"
	"prague/internal/faultinject"
	"prague/internal/graph"
	"prague/internal/naivescan"
	"prague/internal/query"
	"prague/internal/service"
	"prague/internal/store"
)

// workload is one schedule's traffic over one service: cfg.Sessions
// scripted sessions and, when mutations > 0, one mutator streaming
// InsertGraph/DeleteGraph through the service.
type workload struct {
	svc       *service.Service
	st        store.Store // the store svc serves
	fx        *Fixture    // the database at st's first epoch
	mix       difftest.Mix
	typed     bool // typed errors are acceptable outcomes
	mutations int
	disarm    func() // silences every injector before recovery
}

// tally is what one workload's sessions and mutator observed.
type tally struct{ runs, degraded, mutatedRuns, mutations int64 }

// run drives the sessions — each scripted sequentially, all concurrent with
// each other and with the mutator — under one deadlock watchdog (a hung
// mutex or pool would otherwise stall the suite silently). Then it disarms
// the faults and requires every session to still equal its mirror and to
// answer exactly at the store's final epoch. It reports false when the
// schedule failed.
func (w workload) run(t *testing.T, cfg Config, i int, sc fmt.Stringer) (tally, bool) {
	t.Helper()
	hist := newHistory(w.st.Epoch(), w.fx)
	drivers := make([]*driver, cfg.Sessions)
	for s := range drivers {
		drivers[s] = newDriver(t, w, hist, cfg.Sigma, rand.New(rand.NewSource(cfg.Seed*1_000_000+int64(i)*1000+int64(s))))
	}
	var tot tally
	done := make(chan struct{})
	go func() {
		defer close(done)
		var wg sync.WaitGroup
		if w.mutations > 0 {
			wg.Add(1)
			go func() {
				defer wg.Done()
				tot.mutations = w.mutate(t, hist, rand.New(rand.NewSource(cfg.Seed*31+int64(i))), cfg.DBSize/2)
			}()
		}
		for _, d := range drivers {
			wg.Add(1)
			go func() {
				defer wg.Done()
				d.drive(cfg.Steps)
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
		return tally{}, false
	}

	w.disarm()
	for _, d := range drivers {
		d.assertMirror("after the chaos phase")
		d.assertExact(w.st.Epoch())
		tot.runs += d.runs
		tot.degraded += d.degraded
		tot.mutatedRuns += d.mutatedRuns
	}
	return tot, !t.Failed()
}

// mutate streams w.mutations online mutations through the service — the
// only writer of store epochs — and records each published epoch's live
// database in hist. Mutating schedules arm latency-only faults, so every
// mutation must commit: a broadcast that drops a replica is a failure, not
// a tolerated degradation. It returns how many mutations committed.
func (w workload) mutate(t *testing.T, hist *epochHistory, r *rand.Rand, floor int) int64 {
	ctx := context.Background()
	for m := 0; m < w.mutations; m++ {
		g, del := difftest.Mutation(r, w.st.LiveIDs(), floor)
		var err error
		if g != nil {
			_, err = w.svc.InsertGraph(ctx, g)
		} else {
			err = w.svc.DeleteGraph(ctx, del)
		}
		if err != nil {
			t.Errorf("mutator: mutation %d (delete %d): %v", m, del, err)
			return int64(m)
		}
		hist.record(w.st.Epoch(), liveGraphs(w.st))
		time.Sleep(time.Duration(r.Intn(400)) * time.Microsecond)
	}
	return int64(w.mutations)
}

// liveGraphs snapshots the store's current live database in id order.
func liveGraphs(st store.Store) []*graph.Graph {
	ids := st.LiveIDs()
	db := make([]*graph.Graph, 0, len(ids))
	for _, id := range ids {
		db = append(db, st.Graph(id))
	}
	return db
}

// epochHistory maps every published epoch to its live database, with the
// oracle over it built on first lookup. The mutator is the only writer; an
// immutable store is a one-entry history. Checked Runs look their pinned
// epoch up with a short wait — a Run can pin a fresh epoch before the
// mutator finishes recording it.
type epochHistory struct {
	mu   sync.Mutex
	cond *sync.Cond // signals each record; at blocks on it, no polling
	fxs  map[uint64]*Fixture
}

func newHistory(epoch uint64, fx *Fixture) *epochHistory {
	h := &epochHistory{fxs: map[uint64]*Fixture{epoch: fx}}
	h.cond = sync.NewCond(&h.mu)
	return h
}

func (h *epochHistory) record(epoch uint64, db []*graph.Graph) {
	h.mu.Lock()
	defer h.mu.Unlock()
	h.fxs[epoch] = &Fixture{DB: db}
	h.cond.Broadcast()
}

// at returns the fixture of epoch, waiting up to two seconds for it to be
// recorded.
func (h *epochHistory) at(epoch uint64) (*Fixture, error) {
	// Bounded by a timer goroutine rather than a sleep-poll loop: the waiter
	// wakes the instant the mutator records the epoch.
	timeout := time.AfterFunc(2*time.Second, func() {
		h.mu.Lock()
		h.cond.Broadcast()
		h.mu.Unlock()
	})
	defer timeout.Stop()
	deadline := time.Now().Add(2 * time.Second)
	h.mu.Lock()
	defer h.mu.Unlock()
	for {
		if fx, ok := h.fxs[epoch]; ok {
			if fx.Oracle == nil {
				o, err := naivescan.New(fx.DB, 1)
				if err != nil {
					return nil, err
				}
				fx.Oracle = o
			}
			return fx, nil
		}
		if time.Now().After(deadline) {
			return nil, fmt.Errorf("epoch %d was never published", epoch)
		}
		h.cond.Wait()
	}
}

// driver scripts one session and mirrors its query exactly; the mirror is
// both the script's source of valid moves and the "no lost session state"
// check.
type driver struct {
	t      *testing.T
	sess   *service.Session
	mirror *query.Query
	script *difftest.Script
	hist   *epochHistory
	typed  bool
	sigma  int

	lastEpoch   uint64
	runs        int64
	degraded    int64
	mutatedRuns int64
}

func newDriver(t *testing.T, w workload, hist *epochHistory, sigma int, r *rand.Rand) *driver {
	t.Helper()
	sess, err := w.svc.Create(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	d := &driver{t: t, sess: sess, mirror: query.New(), script: difftest.NewScript(r, w.mix),
		hist: hist, typed: w.typed, sigma: sigma}
	d.addNode(d.script.Node())
	d.addNode(d.script.Node())
	return d
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

// accepts reports whether the schedule explains an action's error: an empty
// query always, a typed error only when the schedule can fail, time out or
// shed actions.
func (d *driver) accepts(err error) bool {
	return errors.Is(err, core.ErrEmptyQuery) || d.typed && typedActionErr(err)
}

// drive runs the scripted workload: anchored edge adds (some closing rings),
// deletions of deletable steps, checked runs, and concurrent run bursts,
// checking the mirror after every action.
func (d *driver) drive(steps int) {
	ctx := context.Background()
	for k := 0; k < steps && !d.t.Failed(); k++ {
		switch op := d.script.Next(d.mirror); op.Kind {
		case difftest.Add:
			d.add(ctx, op)
		case difftest.Delete:
			d.delete(ctx, op.Step)
		case difftest.Burst:
			d.burst(ctx)
		case difftest.Check, difftest.Skip:
			// A drawn delete with nothing to delete presses Run instead.
			d.checkedRun(ctx)
		}
		d.assertMirror(fmt.Sprintf("after op %d", k))
	}
	d.checkedRun(ctx)
}

func (d *driver) addNode(label string) int {
	id, err := d.sess.AddNode(label)
	if err != nil {
		d.t.Errorf("session %s: AddNode: %v", d.sess.ID(), err)
		return -1
	}
	if mid := d.mirror.AddNode(label); mid != id {
		d.t.Errorf("session %s: node id diverged: service %d, mirror %d", d.sess.ID(), id, mid)
	}
	return id
}

// add draws the script's edge, then reconciles the mirror with whatever the
// service actually did (a faulted add may leave the edge drawn with its
// evaluation incomplete, or not drawn at all).
func (d *driver) add(ctx context.Context, op difftest.Op) {
	if op.Fresh != "" {
		if id := d.addNode(op.Fresh); id != op.V {
			d.t.Errorf("session %s: fresh node got id %d, script drew %d", d.sess.ID(), id, op.V)
			return
		}
	}
	undrawn := d.mirror.Clone()
	step, merr := d.mirror.AddLabeledEdge(op.U, op.V, op.Bond)
	if merr != nil {
		return // structurally invalid (duplicate, self-loop): skip the op
	}
	out, err := d.sess.AddLabeledEdge(ctx, op.U, op.V, op.Bond)
	switch {
	case err == nil:
		if out.Step != step {
			d.t.Errorf("session %s: step diverged: service %d, mirror %d", d.sess.ID(), out.Step, step)
		}
		if out.NeedsChoice {
			d.resolveChoice(ctx)
		}
	case d.accepts(err):
		// The edge may or may not have been drawn before the fault hit;
		// reconcile the mirror with the service's actual state. An edge shed
		// or timed out before the engine drew it consumed no step label, so
		// the mirror's label counter rolls back with it.
		if !d.serviceHasStep(step) {
			d.mirror = undrawn
		}
	default:
		d.t.Errorf("session %s: AddEdge: %v", d.sess.ID(), err)
	}
}

func (d *driver) delete(ctx context.Context, step int) {
	_, err := d.sess.DeleteEdge(ctx, step)
	switch {
	case err == nil:
		if derr := d.mirror.DeleteEdge(step); derr != nil {
			d.t.Errorf("session %s: mirror delete of step %d failed after service accepted: %v", d.sess.ID(), step, derr)
		}
	case d.accepts(err):
		if !d.serviceHasStep(step) { // deleted before the fault hit
			if derr := d.mirror.DeleteEdge(step); derr != nil {
				d.t.Errorf("session %s: cannot reconcile mirror after faulted delete: %v", d.sess.ID(), derr)
			}
		}
	default:
		d.t.Errorf("session %s: DeleteEdge: %v", d.sess.ID(), err)
	}
}

// burst fires concurrent Runs at the session to provoke admission shedding
// and mutex contention; every outcome must be an accepted error or a
// success (the sequential checkedRun calls validate answer soundness).
func (d *driver) burst(ctx context.Context) {
	var wg sync.WaitGroup
	for i := 0; i < 3; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			if _, err := d.sess.Run(ctx); err != nil && !d.accepts(err) {
				d.t.Errorf("session %s: burst Run: %v", d.sess.ID(), err)
			}
		}()
	}
	wg.Wait()
}

func (d *driver) resolveChoice(ctx context.Context) {
	if _, err := d.sess.ChooseSimilarity(ctx); err != nil && !d.accepts(err) {
		d.t.Errorf("session %s: ChooseSimilarity: %v", d.sess.ID(), err)
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

// checkedRun is the core invariant: every Run pins exactly one epoch, epochs
// never move backwards within a session, and the outcome is complete,
// flagged Truncated with sound bounds, or an accepted error — checked
// against the oracle over the pinned epoch's database, never a blend of two.
func (d *driver) checkedRun(ctx context.Context) {
	out, err := d.sess.RunDetailed(ctx)
	d.runs++
	if err != nil {
		if errors.Is(err, core.ErrAwaitingChoice) {
			d.resolveChoice(ctx)
		} else if !d.accepts(err) {
			d.t.Errorf("session %s: Run: %v", d.sess.ID(), err)
		}
		return
	}
	if out.Epoch < d.lastEpoch {
		d.t.Errorf("session %s: epoch moved backwards: %d after %d", d.sess.ID(), out.Epoch, d.lastEpoch)
		return
	}
	d.lastEpoch = out.Epoch
	if out.Epoch > 0 {
		d.mutatedRuns++
	}
	if out.Stage != core.StageFull {
		d.degraded++
	}
	d.verify(out, "chaos")
}

// verify checks one Run answer, for the query the session actually holds,
// against the oracle over the database of the epoch the Run pinned.
func (d *driver) verify(out core.RunOutcome, phase string) {
	info, err := d.sess.Describe()
	if err != nil {
		d.t.Errorf("session %s: Describe after Run: %v", d.sess.ID(), err)
		return
	}
	qg, err := d.sess.QueryGraph()
	if err != nil || qg == nil {
		d.t.Errorf("session %s: QueryGraph after Run: graph=%v err=%v", d.sess.ID(), qg, err)
		return
	}
	fx, err := d.hist.at(out.Epoch)
	if err != nil {
		d.t.Errorf("session %s: oracle for the pinned epoch: %v", d.sess.ID(), err)
		return
	}
	CheckOutcome(d.t, fx, fmt.Sprintf("session %s (%s, epoch %d)", d.sess.ID(), phase, out.Epoch),
		out, info.SimilarityMode, qg, d.sigma)
}

// assertExact: with the faults disarmed and mutation stopped, the session
// must converge to a StageFull answer pinned at the store's final epoch
// that matches that epoch's oracle exactly. A few retries are allowed — the
// first Run after chaos may still degrade on a tight deadline before caches
// rewarm.
func (d *driver) assertExact(epoch uint64) {
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
			if d.accepts(err) {
				continue
			}
			d.t.Errorf("session %s: recovery Run: %v", d.sess.ID(), err)
			return
		}
		if out.Stage != core.StageFull {
			continue
		}
		if out.Epoch != epoch {
			d.t.Errorf("session %s: recovery Run pinned epoch %d, store is at %d", d.sess.ID(), out.Epoch, epoch)
			return
		}
		d.verify(out, "recovery")
		return
	}
	d.t.Errorf("session %s: never produced a StageFull answer after the faults were disarmed", d.sess.ID())
}
