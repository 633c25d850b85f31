// Package workpool provides the shared bounded worker pool behind PRAGUE's
// verification hot path. A service multiplexing many formulation sessions
// owns one Pool; every session's verification fan-out (exact subgraph
// isomorphism over Rq, SimVerify over Rver) is submitted to it, so total
// verification concurrency stays bounded no matter how many sessions are
// active — replacing the earlier per-call goroutine spawning.
//
// All submission paths are context-aware: cancellation is checked between
// candidates, and callers get back the partial result plus ctx.Err().
package workpool

import (
	"context"
	"runtime"
	"sync"
	"sync/atomic"
	"time"

	"prague/internal/trace"
)

// Pool runs submitted closures on a fixed set of persistent workers.
// Filter may be called concurrently from many sessions; tasks interleave
// fairly because each candidate is its own unit of work.
//
// Workers are panic-isolated: a predicate that panics (a verification bug,
// or injected chaos) fails only its own candidate — the panic is recovered,
// counted, and reported in the batch's Stats, and the worker stays alive to
// serve other sessions. Without isolation one poisoned candidate would kill
// a shared worker goroutine and, with it, the whole fleet's verification
// capacity.
type Pool struct {
	tasks chan func()
	// quit carries retire tokens to workers when the pool is shrunk; see
	// Resize. Buffered so Resize never blocks on a busy fleet.
	quit     chan struct{}
	target   atomic.Int64 // desired worker count (the concurrency bound)
	nworkers atomic.Int64 // live worker goroutines
	busy     atomic.Int64 // workers currently inside a task
	mu       sync.Mutex   // guards spawn vs Close
	closed   bool
	wg       sync.WaitGroup
	once     sync.Once
	panics   atomic.Int64

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
	p := &Pool{tasks: make(chan func()), quit: make(chan struct{}, 1)}
	p.target.Store(int64(n))
	p.mu.Lock()
	p.spawn(n)
	p.mu.Unlock()
	return p
}

// spawn starts n worker goroutines. Callers hold p.mu.
func (p *Pool) spawn(n int) {
	p.nworkers.Add(int64(n))
	p.wg.Add(n)
	for i := 0; i < n; i++ {
		go p.worker()
	}
}

func (p *Pool) worker() {
	defer p.wg.Done()
	for {
		select {
		case task, ok := <-p.tasks:
			if !ok {
				return
			}
			p.busy.Add(1)
			task()
			p.busy.Add(-1)
		case <-p.quit:
			if p.retire() {
				return
			}
		}
	}
}

// retire decides whether the worker holding a quit token should exit: only
// while the live count still exceeds the target (tokens left over from a
// shrink that a later grow cancelled are dropped). When more than one worker
// must go, the retiring worker re-arms the token for the next one.
func (p *Pool) retire() bool {
	for {
		cur := p.nworkers.Load()
		tgt := p.target.Load()
		if cur <= tgt {
			return false
		}
		if p.nworkers.CompareAndSwap(cur, cur-1) {
			if cur-1 > tgt {
				p.nudgeQuit()
			}
			return true
		}
	}
}

func (p *Pool) nudgeQuit() {
	select {
	case p.quit <- struct{}{}:
	default:
	}
}

// Resize changes the pool's worker count to n (clamped to at least 1).
// Growing spawns workers immediately; shrinking retires idle workers as they
// come off tasks, so in-flight candidates are never interrupted. Safe to call
// concurrently with Filter; a no-op after Close. This is the knob the
// adaptive runtime's workpool controller turns.
func (p *Pool) Resize(n int) {
	if p == nil {
		return
	}
	if n < 1 {
		n = 1
	}
	p.mu.Lock()
	defer p.mu.Unlock()
	if p.closed {
		return
	}
	p.target.Store(int64(n))
	if grow := n - int(p.nworkers.Load()); grow > 0 {
		p.spawn(grow)
	} else if grow < 0 {
		p.nudgeQuit()
	}
}

// Workers returns the pool's concurrency bound (the resize target).
func (p *Pool) Workers() int {
	if p == nil {
		return 1
	}
	return int(p.target.Load())
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
	p.mu.Lock()
	p.closed = true
	p.mu.Unlock()
	p.once.Do(func() { close(p.tasks) })
	p.wg.Wait()
}

// Filter returns the ids for which pred holds, preserving input order.
// Candidates are checked on the pool's workers; a nil pool, a single-worker
// pool, or a tiny batch runs inline. Cancellation is polled between
// candidates: on a done context Filter stops early and returns the verified
// prefix found so far together with ctx.Err(). A panicking predicate fails
// only its own candidate (see FilterStats for the count).
func (p *Pool) Filter(ctx context.Context, ids []int, pred func(id int) bool) ([]int, error) {
	out, _, err := p.FilterStats(ctx, ids, pred)
	return out, err
}

// FilterStats is Filter reporting per-batch Stats: callers that must
// distinguish "candidate rejected" from "candidate's check blew up" (the
// degradation ladder flags the latter as truncation) read Stats.Panics.
func (p *Pool) FilterStats(ctx context.Context, ids []int, pred func(id int) bool) ([]int, Stats, error) {
	var panics atomic.Int64
	if len(ids) == 0 {
		return nil, Stats{}, ctx.Err()
	}
	if p != nil && p.OnBatch != nil {
		p.OnBatch(len(ids))
	}
	// Traced callers get one verify_batch span per fan-out (candidate and
	// kept counts, accumulated queue wait) with a per-candidate
	// verify_candidate child for each check — the per-edge visibility into
	// where VF2 time goes. batch is nil on untraced calls and every
	// instrument below no-ops.
	batch := trace.SpanFromContext(ctx).Child(trace.KindVerifyBatch)
	batch.Add("candidates", int64(len(ids)))
	if p == nil || p.Workers() <= 1 || len(ids) < 2 {
		out, err := filterInline(ctx, ids, pred, batch, p, &panics)
		st := Stats{Panics: int(panics.Load())}
		batch.Add("kept", int64(len(out)))
		batch.Add("panics", panics.Load())
		batch.End()
		return out, st, err
	}

	keep := make([]bool, len(ids))
	var wg sync.WaitGroup
	var err error
submit:
	for i := range ids {
		if cerr := ctx.Err(); cerr != nil {
			err = cerr
			break submit
		}
		i := i
		wg.Add(1)
		submitted := time.Now()
		task := func() {
			defer wg.Done()
			if ctx.Err() != nil {
				return
			}
			if batch != nil {
				batch.Add("queue_wait_us", time.Since(submitted).Microseconds())
			}
			c := batch.Child(trace.KindVerifyCand)
			kept, panicked := safeCall(pred, ids[i])
			keep[i] = kept
			if panicked != nil {
				notePanic(p, &panics, panicked)
				c.Add("panicked", 1)
			}
			if kept {
				c.Add("kept", 1)
			}
			c.End()
		}
		select {
		case p.tasks <- task:
		case <-ctx.Done():
			wg.Done()
			err = ctx.Err()
			break submit
		}
	}
	wg.Wait()
	if err == nil {
		err = ctx.Err()
	}
	var out []int
	for i, k := range keep {
		if k {
			out = append(out, ids[i])
		}
	}
	batch.Add("kept", int64(len(out)))
	batch.Add("panics", panics.Load())
	batch.End()
	return out, Stats{Panics: int(panics.Load())}, err
}

func filterInline(ctx context.Context, ids []int, pred func(id int) bool, batch *trace.Span, p *Pool, panics *atomic.Int64) ([]int, error) {
	var out []int
	for _, id := range ids {
		if err := ctx.Err(); err != nil {
			return out, err
		}
		c := batch.Child(trace.KindVerifyCand)
		kept, panicked := safeCall(pred, id)
		if panicked != nil {
			notePanic(p, panics, panicked)
			c.Add("panicked", 1)
		}
		if kept {
			out = append(out, id)
			c.Add("kept", 1)
		}
		c.End()
	}
	return out, nil
}
