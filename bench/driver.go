package main

import (
	"context"
	"errors"
	"fmt"
	"hash/fnv"
	"runtime"
	"slices"
	"time"

	"prague/internal/core"
	"prague/internal/metrics"
	"prague/internal/service"
)

// The timing metrics every round yields; the reported value of each is the
// median over rounds.
const (
	mEdgeP50 = iota
	mEdgeP95
	mSrtP50
	mSrtP95
	mModifyP50
	mSessionsPerS
	mMutationP50
	numTimings
)

var timingNames = [numTimings]string{
	"edge_p50_us", "edge_p95_us", "srt_p50_us", "srt_p95_us", "modify_p50_us", "sessions_per_s", "mutation_p50_us",
}

// client is the single closed-loop client: it issues every operation of the
// schedule itself and waits for it. Sample buffers are sized once.
type client struct {
	ctx   context.Context
	svc   *service.Service
	sched *schedule
	meter *speedometer
	spans *spanLog // set for the traced rounds only
	// inspect, when set, sees the session right after its Run (warm-up's
	// oracle check); nil in timed rounds.
	inspect func(*service.Session, core.RunOutcome) error

	edge, srt, modify, mutation []time.Duration
	sessionTime                 time.Duration

	attempted, failed int
	firstErr          error
}

func newClient(svc *service.Service, sched *schedule, meter *speedometer) *client {
	return &client{
		ctx: context.Background(), svc: svc, sched: sched, meter: meter,
		edge:     make([]time.Duration, 0, sched.edges),
		srt:      make([]time.Duration, 0, len(sched.ops)),
		modify:   make([]time.Duration, 0, sched.modifies),
		mutation: make([]time.Duration, 0, mutationBlock),
	}
}

func (c *client) fail(err error) {
	c.failed++
	if c.firstErr == nil {
		c.firstErr = err
	}
}

// round replays the schedule once and returns the round's timing metrics, as
// the clock read them. At fixed positions of the schedule, outside every
// timed interval, it reads the host speed (design rule 8).
func (c *client) round() [numTimings]float64 {
	c.edge, c.srt, c.modify, c.mutation = c.edge[:0], c.srt[:0], c.modify[:0], c.mutation[:0]
	c.sessionTime = 0
	runtime.GC()
	for i, o := range c.sched.ops {
		if i%c.sched.readEvery == 0 {
			c.meter.read()
		}
		if o.mutate >= 0 {
			c.mutatePair(o.mutate)
		}
		v := c.sched.variants[o.variant]
		sp := c.spans.begin(spanSession, -1, i)
		t0 := time.Now()
		out, err := c.session(v, sp, i)
		c.sessionTime += time.Since(t0)
		c.spans.end(sp)
		if err == nil {
			err = checkOutcome(v, out)
		}
		if err != nil {
			c.fail(fmt.Errorf("session %d (%s): %w", i, v, err))
		}
	}
	c.meter.read()
	runtime.GC() // the closing block starts from a collected heap, as the round did
	for _, g := range c.sched.block {
		if d, ok := c.mutatePair(g); ok {
			c.mutation = append(c.mutation, d)
		}
	}
	c.meter.read()
	var m [numTimings]float64
	m[mEdgeP50], m[mEdgeP95] = quantileUS(c.edge, 50), quantileUS(c.edge, 95)
	m[mSrtP50], m[mSrtP95] = quantileUS(c.srt, 50), quantileUS(c.srt, 95)
	m[mModifyP50] = quantileUS(c.modify, 50)
	m[mSessionsPerS] = float64(len(c.sched.ops)) / c.sessionTime.Seconds()
	m[mMutationP50] = quantileUS(c.mutation, 50)
	return m
}

// session is one user: create, draw the query edge by edge (choosing
// similarity when prompted), optionally delete the suggested edge, Run, delete
// the session. Only complete sessions contribute samples.
func (c *client) session(v *variant, parent int, id int) (core.RunOutcome, error) {
	var none core.RunOutcome
	sp := c.spans.begin(spanCreate, parent, id)
	ss, err := c.svc.Create(c.ctx)
	c.spans.end(sp)
	c.attempted++
	if err != nil {
		return none, err
	}
	defer func() {
		sp := c.spans.begin(spanDelete, parent, id)
		err := c.svc.Delete(ss.ID())
		c.spans.end(sp)
		c.attempted++
		if err != nil {
			c.fail(err)
		}
	}()
	nodes := make([]int, len(v.q.NodeLabels))
	for i, l := range v.q.NodeLabels {
		if nodes[i], err = ss.AddNode(l); err != nil {
			return none, err
		}
	}
	step := func(kind spanKind, act func() (core.StepOutcome, error)) (time.Duration, error) {
		sp := c.spans.begin(kind, parent, id)
		defer c.spans.end(sp)
		c.attempted++
		t0 := time.Now()
		out, err := act()
		if err == nil && out.NeedsChoice {
			_, err = ss.ChooseSimilarity(c.ctx)
		}
		return time.Since(t0), err
	}
	edges := len(c.edge)
	for _, e := range v.q.Edges {
		d, err := step(spanEdge, func() (core.StepOutcome, error) { return ss.AddEdge(c.ctx, nodes[e[0]], nodes[e[1]]) })
		if err != nil {
			c.edge = c.edge[:edges]
			return none, err
		}
		c.edge = append(c.edge, d)
	}
	var modified time.Duration
	if v.modify {
		c.attempted++
		sg, err := ss.SuggestDeletion()
		if err == nil {
			modified, err = step(spanModify, func() (core.StepOutcome, error) { return ss.DeleteEdge(c.ctx, sg.Step) })
		}
		if err != nil {
			c.edge = c.edge[:edges]
			return none, err
		}
	}
	sp = c.spans.begin(spanRun, parent, id)
	c.attempted++
	t0 := time.Now()
	out, err := ss.RunDetailed(c.ctx)
	srt := time.Since(t0)
	c.spans.end(sp)
	if err == nil && c.inspect != nil {
		t0 := time.Now()
		err = c.inspect(ss, out)
		c.sessionTime -= time.Since(t0) // the benchmark's own work, not the session's
	}
	if err != nil {
		c.edge = c.edge[:edges]
		return none, err
	}
	if v.modify {
		c.modify = append(c.modify, modified)
	}
	c.srt = append(c.srt, srt)
	return out, nil
}

// mutatePair inserts graph g of the schedule and deletes it again, leaving
// the database as it was one epoch pair later.
func (c *client) mutatePair(g int) (time.Duration, bool) {
	fresh := c.sched.graphs[g].Clone() // the store takes ownership of what it is given
	sp := c.spans.begin(spanMutate, -1, g)
	defer c.spans.end(sp)
	c.attempted += 2
	t0 := time.Now()
	id, err := c.svc.InsertGraph(c.ctx, fresh)
	if err == nil {
		err = c.svc.DeleteGraph(c.ctx, id)
	}
	d := time.Since(t0)
	if err != nil {
		c.fail(fmt.Errorf("mutation: %w", err))
		return 0, false
	}
	return d, true
}

// checkCounters fails the run if a timer-driven path fired (design rule 5):
// an RPC retry or hedge, or an action shed by admission control.
func (c *client) checkCounters(top *topology) {
	for _, name := range []string{metrics.CounterShardRPCRetries, metrics.CounterShardRPCHedged, metrics.CounterOverloadShed} {
		c.attempted++
		if n := top.reg.Counter(name).Value(); n != 0 {
			c.fail(fmt.Errorf("counter %s is %d, want 0", name, n))
		}
	}
}

// checkOutcome fails a Run that degraded or whose answer differs from the
// oracle-checked answer of its variant.
func checkOutcome(v *variant, out core.RunOutcome) error {
	switch {
	case out.Truncated:
		return errors.New("truncated answer")
	case out.Stage != core.StageFull:
		return fmt.Errorf("degraded answer (stage %s)", out.Stage)
	case answerDigest(out.Results) != v.answer:
		return fmt.Errorf("answer of %d results differs from the oracle's %d", len(out.Results), v.results)
	}
	return nil
}

func answerDigest(rs []core.Result) uint64 {
	h := fnv.New64a()
	var b [16]byte
	for _, r := range rs {
		for i := 0; i < 8; i++ {
			b[i] = byte(r.GraphID >> (8 * i))
			b[8+i] = byte(r.Distance >> (8 * i))
		}
		h.Write(b[:])
	}
	return h.Sum64()
}

// quantileUS is the nearest-rank quantile of the samples in microseconds. It
// sorts in place: the buffers are refilled every round.
func quantileUS(d []time.Duration, pct int) float64 {
	if len(d) == 0 {
		return 0
	}
	slices.Sort(d)
	return float64(d[rank(len(d), pct)]) / 1e3
}

// rank is the index of the pct-th percentile of n sorted samples (nearest
// rank): n-1-rank samples lie beyond it.
func rank(n, pct int) int { return (n*pct+99)/100 - 1 }

// quartiles are Python's statistics.quantiles(v, n=4), the estimator the
// acceptance rule uses.
func quartiles(v []float64) (q1, q2, q3 float64) {
	s := slices.Clone(v)
	slices.Sort(s)
	at := func(i int) float64 {
		if len(s) == 1 {
			return s[0]
		}
		pos := float64(i*(len(s)+1)) / 4
		j := int(pos)
		if j < 1 {
			j = 1
		}
		if j > len(s)-1 {
			j = len(s) - 1
		}
		return s[j-1] + (pos-float64(j))*(s[j]-s[j-1])
	}
	return at(1), at(2), at(3)
}

// estimate is the round-median estimator: the median of the per-round values
// and, as the benchmark's own noise reading, their inter-quartile range as a
// share of that median.
func estimate(rounds []float64) (median, spread float64) {
	q1, q2, q3 := quartiles(rounds)
	if q2 == 0 {
		return 0, 0
	}
	return q2, (q3 - q1) / q2
}
