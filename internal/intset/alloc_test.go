package intset

import (
	"testing"

	"prague/internal/raceflag"
)

// The bitset intersection path is the inner loop of per-shard candidate
// probes: after the scratch buffers have grown to the working-set size, every
// operation must be allocation-free. Budgets are pinned at zero — a
// regression here multiplies across every NIF probe of every action.
func TestBitsAllocBudget(t *testing.T) {
	if raceflag.Enabled {
		t.Skip("allocation budgets are not meaningful under -race")
	}
	lists := [][]int{
		idRange(0, 4096, 3),
		idRange(100, 4000, 2),
		idRange(0, 4096, 5),
	}
	var a, b Bits
	out := make([]int, 0, 4096)
	// Warm the buffers to working-set size.
	out = IntersectInto(out[:0], lists, &a, &b)
	if len(out) == 0 {
		t.Fatal("fixture lists intersect to nothing")
	}

	if n := testing.AllocsPerRun(100, func() {
		a.SetSorted(lists[0])
	}); n != 0 {
		t.Errorf("SetSorted allocates %.1f/op after warmup, budget 0", n)
	}
	if n := testing.AllocsPerRun(100, func() {
		a.SetSorted(lists[0])
		a.AndSorted(lists[1], &b)
	}); n != 0 {
		t.Errorf("AndSorted allocates %.1f/op after warmup, budget 0", n)
	}
	if n := testing.AllocsPerRun(100, func() {
		out = IntersectInto(out[:0], lists, &a, &b)
	}); n != 0 {
		t.Errorf("IntersectInto allocates %.1f/op after warmup, budget 0", n)
	}
	if n := testing.AllocsPerRun(100, func() {
		a.SetRange(0, 4095)
		a.Add(17)
		a.Add(4000)
		_ = a.Len()
		_ = a.Empty()
		_ = a.Contains(17)
	}); n != 0 {
		t.Errorf("SetRange/Add/Len allocates %.1f/op after warmup, budget 0", n)
	}
	b.SetSorted(lists[1])
	if n := testing.AllocsPerRun(100, func() {
		a.SetRange(0, 4095)
		a.OrSorted(lists[0])
		a.Or(&b)
		a.AndNot(&b)
	}); n != 0 {
		t.Errorf("OrSorted/Or/AndNot allocates %.1f/op after warmup, budget 0", n)
	}
}

func idRange(lo, hi, step int) []int {
	var ids []int
	for v := lo; v < hi; v += step {
		ids = append(ids, v)
	}
	return ids
}
