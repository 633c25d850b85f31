package workpool

import (
	"context"
	"sync/atomic"
	"testing"
)

// TestPanicFailsOnlyOffendingCandidate: a predicate that panics on some
// candidates must not kill workers or lose the other candidates' verdicts.
func TestPanicFailsOnlyOffendingCandidate(t *testing.T) {
	p := New(4)
	defer p.Close()
	var observed atomic.Int64
	p.OnPanic = func(v any) { observed.Add(1) }

	ids, _ := evens(200)
	// Keep evens, panic on every multiple of 7.
	got, st, err := p.FilterStats(context.Background(), ids, func(id int) bool {
		if id%7 == 0 {
			panic("poisoned candidate")
		}
		return id%2 == 0
	})
	if err != nil {
		t.Fatal(err)
	}
	wantPanics := 0
	var want []int
	for _, id := range ids {
		if id%7 == 0 {
			wantPanics++
			continue
		}
		if id%2 == 0 {
			want = append(want, id)
		}
	}
	if !equal(got, want) {
		t.Fatalf("kept %v, want %v", got, want)
	}
	if st.Panics != wantPanics {
		t.Fatalf("stats.Panics = %d, want %d", st.Panics, wantPanics)
	}
	if p.Panics() != int64(wantPanics) || observed.Load() != int64(wantPanics) {
		t.Fatalf("pool counted %d panics (hook %d), want %d", p.Panics(), observed.Load(), wantPanics)
	}

	// The pool must still work after the panics: workers survived.
	ids2, want2 := evens(64)
	got2, err := p.Filter(context.Background(), ids2, func(id int) bool { return id%2 == 0 })
	if err != nil || !equal(got2, want2) {
		t.Fatalf("pool broken after panics: %v %v", got2, err)
	}
}

// TestPanicIsolationInlinePaths covers the inline fast path (tiny batches /
// nil pool).
func TestPanicIsolationInlinePaths(t *testing.T) {
	var nilPool *Pool
	got, st, err := nilPool.FilterStats(context.Background(), []int{1}, func(int) bool { panic("x") })
	if err != nil || len(got) != 0 || st.Panics != 1 {
		t.Fatalf("nil pool inline: got=%v stats=%+v err=%v", got, st, err)
	}

	// Single-worker pool routes through the inline path too.
	p := New(1)
	defer p.Close()
	got, st, err = p.FilterStats(context.Background(), []int{1, 2, 3}, func(id int) bool {
		if id == 2 {
			panic("x")
		}
		return true
	})
	if err != nil || st.Panics != 1 || !equal(got, []int{1, 3}) {
		t.Fatalf("single-worker inline: got=%v stats=%+v err=%v", got, st, err)
	}
	if p.Panics() != 1 {
		t.Fatalf("pool panic counter = %d, want 1", p.Panics())
	}
}

// TestPanicMidChunk panics on one candidate in the middle of a chunk: only
// that candidate fails, the rest of its chunk is still verified, and the
// worker that recovered stays in service.
func TestPanicMidChunk(t *testing.T) {
	p := New(2)
	defer p.Close()
	ids, _ := evens(1000)
	poisoned := maxChunk / 2 // inside chunk 0, whose size is maxChunk here
	if chunkSize(len(ids), p.Workers()) != maxChunk {
		t.Fatalf("chunk size %d, want %d", chunkSize(len(ids), p.Workers()), maxChunk)
	}
	got, st, err := p.FilterStats(context.Background(), ids, func(id int) bool {
		if id == poisoned {
			panic("poisoned candidate")
		}
		return true
	})
	if err != nil {
		t.Fatal(err)
	}
	want := append(append([]int(nil), ids[:poisoned]...), ids[poisoned+1:]...)
	if st.Panics != 1 || !equal(got, want) {
		t.Fatalf("panics=%d, kept %d of %d (want all but id %d)", st.Panics, len(got), len(ids), poisoned)
	}
	// Both workers still serve: two chunks that block until both are
	// running can only finish if two workers take them.
	var arrived atomic.Int64
	both := make(chan struct{})
	got, err = p.Filter(context.Background(), []int{0, 1}, func(int) bool {
		if arrived.Add(1) == 2 {
			close(both)
		}
		<-both
		return true
	})
	if err != nil || !equal(got, []int{0, 1}) {
		t.Fatalf("pool broken after a mid-chunk panic: %v %v", got, err)
	}
}
