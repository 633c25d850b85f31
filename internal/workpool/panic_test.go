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
