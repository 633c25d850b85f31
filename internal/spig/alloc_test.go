package spig

import (
	"testing"

	"prague/internal/raceflag"
)

// SPIG construction runs on every formulation step; its scratch (mask memo,
// level slices, dedup set) is owned by the Set and reused across user
// actions. These budgets pin the reuse: the memo-hit path is allocation-free
// and a warm Set rebuilds a whole SPIG far below what fresh per-level
// allocation would cost.
func TestSpigScratchAllocBudget(t *testing.T) {
	if raceflag.Enabled {
		t.Skip("allocation budgets are not meaningful under -race")
	}
	idx, _ := buildIndexes(t, 3, 15, 0.3)
	q, S := formulate(t, idx, []string{"C", "C", "C", "N"},
		[]edgeSpec{{0, 1}, {1, 2}, {0, 2}, {2, 3}})

	// Memo-hit path: the class of an already-seen realization.
	m := S.Target(q).Reps[0]
	fragments := S.fragments
	if n := testing.AllocsPerRun(100, func() { _ = S.classOf(m) }); n != 0 {
		t.Errorf("classOf memo hit allocates %.1f/op, budget 0", n)
	}
	if S.fragments != fragments {
		t.Fatal("memo missed on a repeated realization")
	}

	// Warm reconstruction (the modify-then-reformulate action): dropping a
	// step's SPIG and rebuilding it hits the memo for every realization and
	// for every connected rep − t, so the rebuild costs only the SPIG's own
	// vertex/level structures: 39 allocations.
	const budget = 42
	if n := testing.AllocsPerRun(20, func() {
		S.Remove(4)
		if _, err := S.Construct(q, 4); err != nil {
			t.Fatal(err)
		}
	}); n > budget {
		t.Errorf("warm SPIG reconstruction allocates %.1f/op, budget %d", n, budget)
	}
}

// A cold step materializes one fragment per realization and computes a code
// only for a class the session has not met, and builds nothing for a
// dropped subset rep − t that is disconnected. On a tree-shaped query most
// of them are: the step costs 263 allocations.
func TestSpigColdStepAllocBudget(t *testing.T) {
	if raceflag.Enabled {
		t.Skip("allocation budgets are not meaningful under -race")
	}
	// A C–N–O tree: a two-edge spine with a two-edge branch off one end
	// and a three-edge branch off the other.
	q, S := formulate(t, noIndex{}, []string{"C", "C", "C", "N", "O", "C", "N", "O"},
		[]edgeSpec{{0, 1}, {1, 2}, {0, 3}, {3, 4}, {2, 5}, {5, 6}, {6, 7}})
	last := q.LastStep()
	const budget = 270
	if n := testing.AllocsPerRun(20, func() {
		S.Remove(last)
		clear(S.memo)
		if _, err := S.Construct(q, last); err != nil {
			t.Fatal(err)
		}
	}); n > budget {
		t.Errorf("cold SPIG step on a tree allocates %.1f/op, budget %d", n, budget)
	}
}
