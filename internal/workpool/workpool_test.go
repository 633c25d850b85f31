package workpool

import (
	"context"
	"errors"
	"sync"
	"sync/atomic"
	"testing"
	"time"
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

func TestFilterCancellationPromptAndPartial(t *testing.T) {
	p := New(2)
	defer p.Close()
	ctx, cancel := context.WithCancel(context.Background())
	ids, _ := evens(10_000)
	var seen atomic.Int64
	start := time.Now()
	got, err := p.Filter(ctx, ids, func(id int) bool {
		if seen.Add(1) == 50 {
			cancel()
		}
		time.Sleep(100 * time.Microsecond) // make each candidate non-trivial
		return true
	})
	if !errors.Is(err, context.Canceled) {
		t.Fatalf("err = %v, want context.Canceled", err)
	}
	if elapsed := time.Since(start); elapsed > 2*time.Second {
		t.Fatalf("cancellation took %v, not prompt", elapsed)
	}
	if len(got) == 0 {
		t.Fatal("expected partial results before cancellation")
	}
	if len(got) == len(ids) {
		t.Fatal("cancellation did not stop the batch early")
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

func TestCloseIdempotent(t *testing.T) {
	p := New(2)
	p.Close()
	p.Close()
}
