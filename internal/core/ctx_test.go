package core

import (
	"context"
	"errors"
	"testing"
	"time"

	"prague/internal/graph"
	"prague/internal/index"
	"prague/internal/mining"
)

// makeChoiceFixture builds a fixture whose vocabulary is guaranteed to
// contain a zero-support pair: one graph carries the rare label P bonded
// only to C, so the P-P query edge always empties Rq and triggers the
// modify-or-similarity choice.
func makeChoiceFixture(t *testing.T) *fixture {
	t.Helper()
	base := makeFixture(t, 4, 30, 0.3)
	db := append([]*graph.Graph(nil), base.db...)
	rare := graph.New(len(db))
	rare.AddNode("C")
	rare.AddNode("P")
	rare.MustAddEdge(0, 1)
	db = append(db, rare)
	res, err := mining.Mine(db, mining.Options{MinSupportRatio: 0.3, MaxSize: 8, IncludeZeroSupportPairs: true})
	if err != nil {
		t.Fatal(err)
	}
	idx, err := index.Build(res, 0.3, 3)
	if err != nil {
		t.Fatal(err)
	}
	return &fixture{db: db, idx: idx}
}

// TestRunFallbackLeavesConsistentState is the regression for the stale
// AwaitingChoice report: Run falling back to similarity search (Algorithm 1
// lines 19-21) used to mutate rfree/rver without recording the mode switch,
// so a post-Run AwaitingChoice() still claimed a pending choice and
// SimilarityMode() denied the mode the results were computed in.
func TestRunFallbackLeavesConsistentState(t *testing.T) {
	f := makeChoiceFixture(t)
	e, err := New(f.db, f.idx, 2)
	if err != nil {
		t.Fatal(err)
	}
	a := e.AddNode("P")
	b := e.AddNode("P")
	out, err := e.AddEdge(a, b)
	if err != nil {
		t.Fatal(err)
	}
	if out.ExactCount > 0 || !out.NeedsChoice {
		t.Fatal("P-P edge did not empty Rq; fixture invariant broken")
	}
	if !e.AwaitingChoice() || e.SimilarityMode() {
		t.Fatal("precondition: engine must be awaiting the modify-or-similarity choice")
	}
	// Run without resolving the choice: the engine must treat the fallback
	// as the similarity decision, not leave half-switched state behind.
	results, err := e.Run()
	if err != nil {
		t.Fatal(err)
	}
	if !e.SimilarityMode() {
		t.Error("Run fell back to similarity search but SimilarityMode() == false")
	}
	if e.AwaitingChoice() {
		t.Error("AwaitingChoice() still true after Run resolved the choice")
	}
	// A second Run must reproduce the same ranking from the now-consistent
	// state.
	again, err := e.Run()
	if err != nil {
		t.Fatal(err)
	}
	if len(again) != len(results) {
		t.Fatalf("second Run returned %d results, first %d", len(again), len(results))
	}
	for i := range again {
		if again[i] != results[i] {
			t.Fatalf("result %d differs across runs: %+v vs %+v", i, again[i], results[i])
		}
	}
}

// TestModifyOutOfChoiceDropsSimilaritySets: when the user answers an empty Rq
// with Modify rather than SimQuery and the modified query has exact
// candidates again, the similarity candidates computed for the abandoned
// query are dropped — they are neither counted nor served by the ladder's
// verification-free rung.
func TestModifyOutOfChoiceDropsSimilaritySets(t *testing.T) {
	f := makeChoiceFixture(t)
	e, err := New(f.db, f.idx, 2)
	if err != nil {
		t.Fatal(err)
	}
	c, p, p2 := e.AddNode("C"), e.AddNode("P"), e.AddNode("P")
	if out, err := e.AddEdge(c, p); err != nil || out.ExactCount == 0 {
		t.Fatalf("C-P edge: %+v, %v; fixture invariant broken", out, err)
	}
	out, err := e.AddEdge(p, p2)
	if err != nil || !out.NeedsChoice {
		t.Fatalf("P-P edge: %+v, %v; want the modify-or-similarity choice", out, err)
	}
	if out.FreeCount+out.VerCount == 0 {
		t.Fatal("fixture: the emptied query has no similarity candidates to drop")
	}
	out, err = e.DeleteEdge(out.Step)
	if err != nil || out.Status == StatusSimilar || out.ExactCount == 0 {
		t.Fatalf("Modify: %+v, %v; want containment with exact candidates", out, err)
	}
	if free, ver, total := e.CandidateCounts(); free+ver+total != 0 {
		t.Errorf("CandidateCounts after Modify = (%d, %d, %d), want zeros", free, ver, total)
	}
	if e.hasFree() {
		t.Error("the verification-free rung still holds the abandoned query's Rfree")
	}
}

func TestRunCtxCancelled(t *testing.T) {
	f := makeFixture(t, 7, 40, 0.3)
	e, err := New(f.db, f.idx, 2)
	if err != nil {
		t.Fatal(err)
	}
	a := e.AddNode("C")
	b := e.AddNode("C")
	if out, err := e.AddEdge(a, b); err != nil {
		t.Fatal(err)
	} else if out.NeedsChoice {
		e.ChooseSimilarity()
	}
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	if _, err := e.RunCtx(ctx); !errors.Is(err, context.Canceled) {
		t.Fatalf("RunCtx on cancelled ctx: err = %v, want wrapped context.Canceled", err)
	}
	// A live context still works after the aborted attempt.
	if _, err := e.Run(); err != nil {
		t.Fatalf("Run after cancelled attempt: %v", err)
	}
}

func TestRunCtxDeadline(t *testing.T) {
	f := makeFixture(t, 8, 40, 0.3)
	e, err := New(f.db, f.idx, 2)
	if err != nil {
		t.Fatal(err)
	}
	a := e.AddNode("C")
	b := e.AddNode("N")
	if out, err := e.AddEdge(a, b); err != nil {
		t.Fatal(err)
	} else if out.NeedsChoice {
		e.ChooseSimilarity()
	}
	ctx, cancel := context.WithDeadline(context.Background(), time.Now().Add(-time.Second))
	defer cancel()
	if _, err := e.RunCtx(ctx); !errors.Is(err, context.DeadlineExceeded) {
		t.Fatalf("RunCtx past deadline: err = %v, want wrapped DeadlineExceeded", err)
	}
}

func TestAddEdgeCtxCancelled(t *testing.T) {
	f := makeFixture(t, 9, 25, 0.3)
	e, err := New(f.db, f.idx, 2)
	if err != nil {
		t.Fatal(err)
	}
	a := e.AddNode("C")
	b := e.AddNode("C")
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	if _, err := e.AddEdgeCtx(ctx, a, b); !errors.Is(err, context.Canceled) {
		t.Fatalf("AddEdgeCtx on cancelled ctx: err = %v", err)
	}
	// The cancelled attempt must not have half-drawn the edge.
	if e.Query().Size() != 0 {
		t.Fatalf("cancelled AddEdgeCtx left %d edges in the query", e.Query().Size())
	}
}

func TestSentinelErrors(t *testing.T) {
	f := makeFixture(t, 10, 20, 0.3)
	e, err := New(f.db, f.idx, 1)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := e.Run(); !errors.Is(err, ErrEmptyQuery) {
		t.Errorf("Run on empty query: err = %v, want ErrEmptyQuery", err)
	}
	if _, err := e.Explain(0); !errors.Is(err, ErrEmptyQuery) {
		t.Errorf("Explain on empty query: err = %v, want ErrEmptyQuery", err)
	}
	if _, err := e.Explain(len(f.db) + 5); !errors.Is(err, ErrGraphNotFound) {
		t.Errorf("Explain out of range: err = %v, want ErrGraphNotFound", err)
	}
	if _, err := New(f.db, f.idx, -1); !errors.Is(err, ErrNegativeSigma) {
		t.Errorf("New with σ<0: err = %v, want ErrNegativeSigma", err)
	}
}

// cancelAfter reports cancellation from its n-th Err call on, so a test can
// cancel an action at an exact point between two probes.
type cancelAfter struct {
	context.Context
	n int
}

func (c *cancelAfter) Err() error {
	if c.n--; c.n <= 0 {
		return context.Canceled
	}
	return nil
}

// TestSimilarSubCandidatesStopsBetweenProbes: on an in-process store,
// monolithic or sharded, a cancellation between two vertex probes ends
// Algorithm 4 there; the vertices after it are never probed.
func TestSimilarSubCandidatesStopsBetweenProbes(t *testing.T) {
	f := makeFixture(t, 7, 40, 0.3)
	for _, l := range layouts {
		t.Run(l.name, func(t *testing.T) {
			e := l.new(t, f)
			n := []int{e.AddNode("C"), e.AddNode("C"), e.AddNode("C"), e.AddNode("C")}
			for k := 1; k < len(n); k++ {
				if _, err := e.AddEdge(n[k-1], n[k]); err != nil {
					t.Fatal(err)
				}
			}
			e.candMemo = classMemo{}
			// Err is polled once before the probes, then before every vertex
			// but the first: the second poll falls between the first two
			// probes.
			if err := e.similarSubCandidates(&cancelAfter{Context: context.Background(), n: 2}); !errors.Is(err, context.Canceled) {
				t.Fatalf("err = %v, want context.Canceled", err)
			}
			if n := len(e.candMemo[0]) + len(e.candMemo[1]); n != 1 {
				t.Errorf("%d vertices probed, want 1: the cancellation must stop the probes", n)
			}
		})
	}
}
