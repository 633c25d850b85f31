package core

import (
	"context"
	"testing"

	"prague/internal/raceflag"
	"prague/internal/spig"
	"prague/internal/store"
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

// TestShardedProbeAllocBudget pins the allocations of one NIF vertex probe
// (Algorithm 3's intersection) on a warm 4-shard engine, memo cleared. The
// shards are probed in the caller's loop on the engine's one scratch, so
// what remains is the per-shard list slice, the fresh candidate list of each
// shard with a non-empty intersection, and the merged result.
func TestShardedProbeAllocBudget(t *testing.T) {
	if raceflag.Enabled {
		t.Skip("allocation budgets are not meaningful under -race")
	}
	f := makeFixture(t, 3, 40, 0.3)
	st, err := store.NewSharded(f.db, f.idx, 4)
	if err != nil {
		t.Fatal(err)
	}
	e, err := NewWithStore(st, 2)
	if err != nil {
		t.Fatal(err)
	}
	n := []int{e.AddNode("C"), e.AddNode("C"), e.AddNode("N"), e.AddNode("C"), e.AddNode("O")}
	for k := 1; k < len(n); k++ {
		if _, err := e.AddEdge(n[k-1], n[k]); err != nil {
			t.Fatal(err)
		}
	}
	var nif *spig.Vertex
	for i := e.q.Size(); i >= 1 && nif == nil; i-- {
		for _, v := range e.spigs.LevelVertices(i) {
			if !v.Kind.Indexed() && len(v.Phi)+len(v.Ups) > 1 {
				nif = v
				break
			}
		}
	}
	if nif == nil {
		t.Fatal("fixture: the query has no NIF vertex with an intersection")
	}
	ctx := context.Background()
	if _, err := e.localCandidates(ctx, nif); err != nil {
		t.Fatal(err)
	}
	// Measured: 4 (13 with a goroutine per shard and a WaitGroup).
	const budget = 4
	if a := testing.AllocsPerRun(50, func() {
		delete(e.candMemo, nif)
		if _, err := e.localCandidates(ctx, nif); err != nil {
			t.Fatal(err)
		}
	}); a > budget {
		t.Errorf("sharded NIF probe allocates %.1f/op, budget %d", a, budget)
	}
}
