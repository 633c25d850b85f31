package workpool

import (
	"context"
	"errors"
	"sync"
	"sync/atomic"
	"testing"

	"prague/internal/raceflag"
)

func evens(n int) ([]int, []int) {
	ids := make([]int, n)
	var want []int
	for i := range ids {
		ids[i] = i
		if i%2 == 0 {
			want = append(want, i)
		}
	}
	return ids, want
}

func equal(a, b []int) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if a[i] != b[i] {
			return false
		}
	}
	return true
}

func TestFilterMatchesInline(t *testing.T) {
	p := New(4)
	defer p.Close()
	ids, want := evens(137)
	got, err := p.Filter(context.Background(), ids, func(id int) bool { return id%2 == 0 })
	if err != nil {
		t.Fatal(err)
	}
	if !equal(got, want) {
		t.Fatalf("pool filter diverged from inline semantics: %v", got)
	}
}

func TestFilterSharedAcrossCallers(t *testing.T) {
	p := New(3)
	defer p.Close()
	var batches atomic.Int64
	p.OnBatch = func(n int) { batches.Add(int64(n)) }

	var wg sync.WaitGroup
	errs := make([]error, 16)
	for c := 0; c < 16; c++ {
		wg.Add(1)
		go func(c int) {
			defer wg.Done()
			ids, want := evens(64)
			got, err := p.Filter(context.Background(), ids, func(id int) bool { return id%2 == 0 })
			if err != nil {
				errs[c] = err
				return
			}
			if !equal(got, want) {
				errs[c] = errors.New("wrong result under contention")
			}
		}(c)
	}
	wg.Wait()
	for _, err := range errs {
		if err != nil {
			t.Fatal(err)
		}
	}
	if got := batches.Load(); got != 16*64 {
		t.Fatalf("OnBatch observed %d candidates, want %d", got, 16*64)
	}
}

// TestFilterCancellationPromptAndPartial cancels from inside the 50th
// predicate call. Every worker polls ctx before each candidate, so each can
// have entered at most one call after the cancel; the batch stops there
// and returns what it verified.
func TestFilterCancellationPromptAndPartial(t *testing.T) {
	p := New(2)
	defer p.Close()
	ctx, cancel := context.WithCancel(context.Background())
	ids, _ := evens(10_000)
	var seen, late atomic.Int64
	got, err := p.Filter(ctx, ids, func(id int) bool {
		if ctx.Err() != nil {
			late.Add(1)
		}
		if seen.Add(1) == 50 {
			cancel()
		}
		return true
	})
	if !errors.Is(err, context.Canceled) {
		t.Fatalf("err = %v, want context.Canceled", err)
	}
	if len(got) == 0 {
		t.Fatal("expected partial results before cancellation")
	}
	if n := late.Load(); n > int64(p.Workers()) {
		t.Fatalf("%d predicate calls began after the cancel, want at most %d", n, p.Workers())
	}
	if len(got) == len(ids) {
		t.Fatal("cancellation did not stop the batch early")
	}
}

// TestFilterChunkBoundaries compares the pooled path with filterInline on
// batch sizes around the chunk cap and on worker counts that route through
// both paths.
func TestFilterChunkBoundaries(t *testing.T) {
	pred := func(id int) bool { return id%3 != 0 }
	for _, workers := range []int{1, 2, 4} {
		p := New(workers)
		for _, n := range []int{0, 1, maxChunk - 1, maxChunk, maxChunk + 1, 1000} {
			ids, _ := evens(n)
			var panics atomic.Int64
			want, _ := filterInline(context.Background(), ids, pred, nil, nil, &panics)
			got, err := p.Filter(context.Background(), ids, pred)
			if err != nil || !equal(got, want) {
				t.Errorf("%d workers, %d ids: got %v (err %v), want %v", workers, n, got, err, want)
			}
		}
		p.Close()
	}
}

// TestFilterAllocBudget pins the pool's hand-off cost: a 1 000-id batch
// allocates per batch and per chunk at most, never per candidate.
func TestFilterAllocBudget(t *testing.T) {
	if raceflag.Enabled {
		t.Skip("allocation budgets are not meaningful under -race")
	}
	p := New(2)
	defer p.Close()
	ids, _ := evens(1000)
	pred := func(int) bool { return true }
	p.Filter(context.Background(), ids, pred)
	if n := testing.AllocsPerRun(50, func() {
		p.Filter(context.Background(), ids, pred)
	}); n > 64 {
		t.Errorf("pooled Filter of 1000 ids allocates %.1f/op, budget 64", n)
	}
}

func TestFilterNilPool(t *testing.T) {
	var p *Pool
	ids, want := evens(31)
	got, err := p.Filter(context.Background(), ids, func(id int) bool { return id%2 == 0 })
	if err != nil || !equal(got, want) {
		t.Fatalf("nil pool filter: %v %v", got, err)
	}
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	if _, err := p.Filter(ctx, ids, func(id int) bool { return true }); !errors.Is(err, context.Canceled) {
		t.Fatalf("nil pool filter on cancelled ctx: %v", err)
	}
}

func TestNilPoolKnobs(t *testing.T) {
	var p *Pool
	if p.Workers() != 1 || p.Busy() != 0 {
		t.Fatalf("nil pool knobs = (%d, %d), want (1, 0)", p.Workers(), p.Busy())
	}
}

// TestBusyGauge checks the busy count the SLO tracker samples as
// worker_util: it counts a worker while it is inside a task and drops back
// to zero once the task returns (Close waits for the workers to exit).
func TestBusyGauge(t *testing.T) {
	p := New(2)
	if got := p.Workers(); got != 2 {
		t.Fatalf("Workers = %d, want 2", got)
	}
	if got := p.Busy(); got != 0 {
		t.Fatalf("idle Busy = %d", got)
	}
	block, started := make(chan struct{}), make(chan struct{})
	p.tasks <- task{run: func(int) { close(started); <-block }}
	<-started
	if got := p.Busy(); got != 1 {
		t.Fatalf("Busy = %d with one blocked task", got)
	}
	close(block)
	p.Close()
	if got := p.Busy(); got != 0 {
		t.Fatalf("Busy = %d after the task returned", got)
	}
}

func TestCloseIdempotent(t *testing.T) {
	p := New(2)
	p.Close()
	p.Close()
}
