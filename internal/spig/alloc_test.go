package spig

import (
	"testing"

	"prague/internal/raceflag"
)

// SPIG construction runs on every formulation step; its scratch (fragment
// memo, int arena, dedup keys) is owned by the Set and reused across user
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

	// Memo-hit path: fragment + canonical code for an already-seen step set.
	steps := []int{1, 2, 3}
	if _, _, _, ok := S.fragAndCode(q, steps); !ok {
		t.Fatal("fixture step set is not connected")
	}
	if n := testing.AllocsPerRun(100, func() {
		if _, _, computed, _ := S.fragAndCode(q, steps); computed {
			t.Fatal("memo missed on a repeated step set")
		}
	}); n != 0 {
		t.Errorf("fragAndCode memo hit allocates %.1f/op, budget 0", n)
	}

	// without uses the Set's subBuf scratch.
	if n := testing.AllocsPerRun(100, func() {
		_ = S.without(steps, 2)
	}); n != 0 {
		t.Errorf("without allocates %.1f/op after warmup, budget 0", n)
	}

	// Warm reconstruction (the modify-then-reformulate action): dropping a
	// step's SPIG and rebuilding it hits the fragment/code memo for every
	// connected subset and builds nothing for a disconnected one, so the
	// rebuild costs only the SPIG's own vertex/level structures: 82
	// allocations, where building the fragment of each disconnected
	// rep − t would add 34.
	const budget = 85
	if n := testing.AllocsPerRun(20, func() {
		S.Remove(4)
		if _, err := S.Construct(q, 4); err != nil {
			t.Fatal(err)
		}
	}); n > budget {
		t.Errorf("warm SPIG reconstruction allocates %.1f/op, budget %d", n, budget)
	}
}

// A cold step materializes one fragment and computes one code per
// realization, and nothing for a dropped subset rep − t that is
// disconnected. On a tree-shaped query most of them are: the step costs 355
// allocations, and building each of their fragments would make it 997.
func TestSpigColdStepAllocBudget(t *testing.T) {
	if raceflag.Enabled {
		t.Skip("allocation budgets are not meaningful under -race")
	}
	// A C–N–O tree: a two-edge spine with a two-edge branch off one end
	// and a three-edge branch off the other.
	q, S := formulate(t, noIndex{}, []string{"C", "C", "C", "N", "O", "C", "N", "O"},
		[]edgeSpec{{0, 1}, {1, 2}, {0, 3}, {3, 4}, {2, 5}, {5, 6}, {6, 7}})
	last := q.LastStep()
	const budget = 370
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
