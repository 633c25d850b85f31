// Package workpool provides the shared bounded worker pool behind PRAGUE's
// verification hot path. A service multiplexing many formulation sessions
// owns one Pool; every session's verification fan-out (exact subgraph
// isomorphism over Rq, SimVerify over Rver) is submitted to it, so total
// verification concurrency stays bounded no matter how many sessions are
// active.
//
// A batch is handed to the workers in chunks of contiguous candidates, so
// the hand-off (a channel send, and a clock read when traced) is paid once
// per chunk rather than once per candidate. Cancellation is still checked
// before every candidate, and callers get back the partial result plus
// ctx.Err().
package workpool

import (
	"context"
	"runtime"
	"sync"
	"sync/atomic"
	"time"

	"prague/internal/trace"
)

// Pool runs submitted chunks on a fixed set of persistent workers. Filter
// may be called concurrently from many sessions; their batches interleave
// fairly at chunk granularity, because each chunk is its own unit of work
// and a chunk holds at most maxChunk candidates.
//
// Workers are panic-isolated: a predicate that panics (a verification bug,
// or injected chaos) fails only its own candidate — the panic is recovered,
// counted, and reported in the batch's Stats, and the worker stays alive to
// serve other sessions. Without isolation one poisoned candidate would kill
// a shared worker goroutine and, with it, the whole fleet's verification
// capacity.
type Pool struct {
	tasks   chan task
	workers int          // concurrency bound, fixed at New
	busy    atomic.Int64 // workers currently inside a task
	wg      sync.WaitGroup
	once    sync.Once
	panics  atomic.Int64

	// OnBatch, if set, observes each verification batch routed through the
	// pool (the batch's candidate count). Set it right after New, before
	// the pool is shared; it is read without synchronization afterwards.
	OnBatch func(candidates int)

	// OnPanic, if set, observes each recovered predicate panic with the
	// recovered value. Same publication rule as OnBatch.
	OnPanic func(v any)
}

// Stats reports what happened inside one Filter batch beyond the kept set.
type Stats struct {
	// Panics counts candidates whose predicate panicked; each was recovered
	// and treated as not kept.
	Panics int
}

// New creates a pool with n persistent workers. n < 1 defaults to
// GOMAXPROCS. Close the pool when done to release the workers.
func New(n int) *Pool {
	if n < 1 {
		n = runtime.GOMAXPROCS(0)
	}
	p := &Pool{tasks: make(chan task), workers: n}
	p.wg.Add(n)
	for i := 0; i < n; i++ {
		go p.worker()
	}
	return p
}

func (p *Pool) worker() {
	defer p.wg.Done()
	for t := range p.tasks {
		p.busy.Add(1)
		t.run(t.chunk)
		p.busy.Add(-1)
	}
}

// task is one unit of work on the pool: chunk number chunk of the batch
// whose run method is run.
type task struct {
	run   func(chunk int)
	chunk int
}

// Workers returns the pool's concurrency bound, fixed at New.
func (p *Pool) Workers() int {
	if p == nil {
		return 1
	}
	return p.workers
}

// Busy returns how many workers are currently inside a task. Sampled by the
// SLO tracker to derive windowed worker utilization; maintained with two
// atomic adds per task, no clock reads.
func (p *Pool) Busy() int {
	if p == nil {
		return 0
	}
	return int(p.busy.Load())
}

// Panics returns how many predicate panics the pool has recovered since
// creation. Nil-safe.
func (p *Pool) Panics() int64 {
	if p == nil {
		return 0
	}
	return p.panics.Load()
}

// notePanic records one recovered predicate panic on the pool (when there
// is one) and the batch's stats.
func notePanic(p *Pool, panics *atomic.Int64, v any) {
	panics.Add(1)
	if p != nil {
		p.panics.Add(1)
		if p.OnPanic != nil {
			p.OnPanic(v)
		}
	}
}

// safeCall runs pred(id), converting a panic into (false, recovered).
func safeCall(pred func(id int) bool, id int) (keep bool, panicked any) {
	defer func() {
		if v := recover(); v != nil {
			keep, panicked = false, v
		}
	}()
	return pred(id), nil
}

// Close stops the workers after draining queued tasks. In-flight Filter
// calls must have completed; Close is idempotent.
func (p *Pool) Close() {
	if p == nil {
		return
	}
	p.once.Do(func() { close(p.tasks) })
	p.wg.Wait()
}

// maxChunk caps the candidates in one chunk: small enough that batches
// from concurrent sessions interleave and a batch spreads over every worker,
// large enough that the hand-off costs little against the chunk's VF2
// checks of about 1.2 µs each (graph.vf2_us_per_call of a traced verify-comb
// run, 2 vCPU host). On the verify-comb workload at 2 vCPUs, a cap of 64 gave
// a lower Run latency than 32, and 32 a lower one than 16.
const maxChunk = 64

// chunkSize splits n candidates into about four chunks per worker, each of
// at most maxChunk candidates.
func chunkSize(n, workers int) int {
	return max(1, min(maxChunk, (n+4*workers-1)/(4*workers)))
}

// Filter returns the ids for which pred holds, preserving input order.
// Candidates are checked on the pool's workers; a nil pool, a single-worker
// pool, or a tiny batch runs inline. Cancellation is polled before every
// candidate: on a done context Filter stops early and returns the
// candidates verified so far together with ctx.Err(). A panicking predicate
// fails only its own candidate (see FilterStats for the count).
func (p *Pool) Filter(ctx context.Context, ids []int, pred func(id int) bool) ([]int, error) {
	out, _, err := p.FilterStats(ctx, ids, pred)
	return out, err
}

// FilterStats is Filter reporting per-batch Stats: callers that must
// distinguish "candidate rejected" from "candidate's check blew up" (the
// degradation ladder flags the latter as truncation) read Stats.Panics.
func (p *Pool) FilterStats(ctx context.Context, ids []int, pred func(id int) bool) ([]int, Stats, error) {
	if len(ids) == 0 {
		return nil, Stats{}, ctx.Err()
	}
	if p != nil && p.OnBatch != nil {
		p.OnBatch(len(ids))
	}
	// Traced callers get one verify_batch span per fan-out (candidate and
	// kept counts, accumulated queue wait) with a verify_candidate child for
	// each check — the per-edge visibility into where VF2 time goes. span
	// is nil on untraced calls and every instrument below no-ops.
	span := trace.SpanFromContext(ctx).Child(trace.KindVerifyBatch)
	span.Add("candidates", int64(len(ids)))
	var (
		out    []int
		panics atomic.Int64
		err    error
	)
	if p == nil || p.Workers() <= 1 || len(ids) < 2 {
		out, err = filterInline(ctx, ids, pred, span, p, &panics)
	} else {
		out, err = p.filterChunked(ctx, ids, pred, span, &panics)
	}
	span.Add("kept", int64(len(out)))
	span.Add("panics", panics.Load())
	span.End()
	return out, Stats{Panics: int(panics.Load())}, err
}

// batch is one FilterStats call spread over the workers: chunk c covers
// ids[c*size : (c+1)*size], and each candidate's verdict lands in keep.
type batch struct {
	ctx    context.Context
	ids    []int
	pred   func(id int) bool
	size   int
	keep   []bool
	span   *trace.Span
	sent   []time.Time // chunk submission times, traced batches only
	pool   *Pool
	panics *atomic.Int64
	wg     sync.WaitGroup
}

// run verifies one chunk on a worker, polling ctx before every candidate.
func (b *batch) run(c int) {
	defer b.wg.Done()
	if b.span != nil {
		b.span.Add("queue_wait_us", time.Since(b.sent[c]).Microseconds())
	}
	for i := c * b.size; i < min((c+1)*b.size, len(b.ids)); i++ {
		if b.ctx.Err() != nil {
			return
		}
		b.keep[i] = verify(b.pred, b.ids[i], b.span, b.pool, b.panics)
	}
}

// filterChunked submits the batch one chunk at a time on the unbuffered
// tasks channel, so it never runs more than Workers() candidates at once,
// and waits for every submitted chunk.
func (p *Pool) filterChunked(ctx context.Context, ids []int, pred func(id int) bool, span *trace.Span, panics *atomic.Int64) ([]int, error) {
	b := &batch{ctx: ctx, ids: ids, pred: pred, size: chunkSize(len(ids), p.workers),
		keep: make([]bool, len(ids)), span: span, pool: p, panics: panics}
	chunks := (len(ids) + b.size - 1) / b.size
	if span != nil {
		b.sent = make([]time.Time, chunks)
	}
	run := b.run
	var err error
	for c := 0; c < chunks; c++ {
		if err = ctx.Err(); err != nil {
			break
		}
		if b.sent != nil {
			b.sent[c] = time.Now()
		}
		b.wg.Add(1)
		select {
		case p.tasks <- task{run: run, chunk: c}:
		case <-ctx.Done():
			b.wg.Done()
			err = ctx.Err()
		}
	}
	b.wg.Wait()
	if err == nil {
		err = ctx.Err()
	}
	kept := 0
	for _, k := range b.keep {
		if k {
			kept++
		}
	}
	if kept == 0 {
		return nil, err
	}
	out := make([]int, 0, kept)
	for i, k := range b.keep {
		if k {
			out = append(out, ids[i])
		}
	}
	return out, err
}

func filterInline(ctx context.Context, ids []int, pred func(id int) bool, span *trace.Span, p *Pool, panics *atomic.Int64) ([]int, error) {
	var out []int
	for _, id := range ids {
		if err := ctx.Err(); err != nil {
			return out, err
		}
		if verify(pred, id, span, p, panics) {
			out = append(out, id)
		}
	}
	return out, nil
}

// verify checks one candidate under its own verify_candidate span. A
// panicking predicate is recovered, counted, and reads as not kept.
func verify(pred func(id int) bool, id int, span *trace.Span, p *Pool, panics *atomic.Int64) bool {
	c := span.Child(trace.KindVerifyCand)
	kept, panicked := safeCall(pred, id)
	if panicked != nil {
		notePanic(p, panics, panicked)
		c.Add("panicked", 1)
	}
	if kept {
		c.Add("kept", 1)
	}
	c.End()
	return kept
}
