package core

import (
	"context"
	"testing"

	"prague/internal/raceflag"
)

// TestSimilarityStepAllocBudget pins the allocations of one similarity-mode
// refresh (Algorithm 4 plus the step's counts) on a warm engine. The query is
// verification-free at every level, so nothing reaches the verify pool. The
// per-level bitsets and the count scratch are engine-owned and reused, so
// they add nothing: what remains is the SPIG level walk and the probe batch
// bookkeeping, whose count does not depend on the database size.
func TestSimilarityStepAllocBudget(t *testing.T) {
	if raceflag.Enabled {
		t.Skip("allocation budgets are not meaningful under -race")
	}
	f := makeFixture(t, 3, 40, 0.3)
	e, err := New(f.db, f.idx, 2)
	if err != nil {
		t.Fatal(err)
	}
	n := []int{e.AddNode("C"), e.AddNode("C"), e.AddNode("C"), e.AddNode("C")}
	for k := 1; k < len(n); k++ {
		if _, err := e.AddEdge(n[k-1], n[k]); err != nil {
			t.Fatal(err)
		}
	}
	out := e.ChooseSimilarity()
	if out.FreeCount == 0 || out.VerCount != 0 {
		t.Fatalf("fixture: want a verification-free similarity window, got %+v", out)
	}
	ctx := context.Background()
	// Measured: 7 (the list-based sets allocated 14 on this fixture).
	const budget = 7
	if a := testing.AllocsPerRun(50, func() {
		if _, err := e.refresh(ctx); err != nil {
			t.Fatal(err)
		}
	}); a > budget {
		t.Errorf("similarity refresh allocates %.1f/op, budget %d", a, budget)
	}
}
