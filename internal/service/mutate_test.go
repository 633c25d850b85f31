package service

import (
	"context"
	"errors"
	"testing"

	"prague/internal/graph"
	"prague/internal/metrics"
	"prague/internal/store"
)

// TestServiceMutation exercises the service-level mutation surface: epoch
// progression, metrics, validation, and closed-service refusal. The
// concurrency side (mutators racing sessions) lives in internal/chaostest.
func TestServiceMutation(t *testing.T) {
	db, idx := smallFixture(t)
	st, err := store.NewSharded(db, idx, 1)
	if err != nil {
		t.Fatal(err)
	}
	reg := metrics.NewRegistry()
	svc, err := NewFromStore(st, WithSigma(2), WithMetrics(reg))
	if err != nil {
		t.Fatal(err)
	}
	ctx := context.Background()

	if svc.Epoch() != 0 {
		t.Fatalf("fresh service at epoch %d", svc.Epoch())
	}
	g := graph.New(0)
	a := g.AddNode("C")
	b := g.AddNode("N")
	g.MustAddEdge(a, b)
	id, err := svc.InsertGraph(ctx, g)
	if err != nil {
		t.Fatal(err)
	}
	if id != len(db) {
		t.Errorf("inserted graph got id %d, want next slot %d", id, len(db))
	}
	if svc.Epoch() != 1 {
		t.Errorf("epoch after insert: %d", svc.Epoch())
	}
	if _, err := svc.InsertGraph(ctx, nil); !errors.Is(err, store.ErrBadGraph) {
		t.Errorf("nil insert: %v", err)
	}
	if err := svc.DeleteGraph(ctx, id); err != nil {
		t.Fatal(err)
	}
	if err := svc.DeleteGraph(ctx, id); !errors.Is(err, store.ErrNoSuchGraph) {
		t.Errorf("double delete: %v", err)
	}
	if svc.Epoch() != 2 {
		t.Errorf("epoch after delete: %d", svc.Epoch())
	}

	snap := svc.Snapshot()
	if snap.Counters[metrics.CounterGraphsInserted] != 1 ||
		snap.Counters[metrics.CounterGraphsDeleted] != 1 {
		t.Errorf("mutation counters: %+v", snap.Counters)
	}
	if snap.Counters[metrics.CounterStoreEpoch] != 2 {
		t.Errorf("store_epoch gauge: %d", snap.Counters[metrics.CounterStoreEpoch])
	}
	if snap.Histograms[metrics.HistMutation].Count != 2 {
		t.Errorf("mutation histogram count: %d", snap.Histograms[metrics.HistMutation].Count)
	}

	canceled, cancel := context.WithCancel(ctx)
	cancel()
	if _, err := svc.InsertGraph(canceled, g.Clone()); !errors.Is(err, context.Canceled) {
		t.Errorf("canceled insert: %v", err)
	}
	if err := svc.DeleteGraph(canceled, 0); !errors.Is(err, context.Canceled) {
		t.Errorf("canceled delete: %v", err)
	}

	svc.Close()
	if _, err := svc.InsertGraph(ctx, g.Clone()); !errors.Is(err, ErrServiceClosed) {
		t.Errorf("insert after close: %v", err)
	}
	if err := svc.DeleteGraph(ctx, 0); !errors.Is(err, ErrServiceClosed) {
		t.Errorf("delete after close: %v", err)
	}
}

// TestServiceMutationSharesAdmission verifies mutations go through the same
// global in-flight bound as evaluations: with the bound saturated, a
// mutation is shed with a typed *OverloadError instead of queueing.
func TestServiceMutationSharesAdmission(t *testing.T) {
	db, idx := smallFixture(t)
	st, err := store.NewSharded(db, idx, 1)
	if err != nil {
		t.Fatal(err)
	}
	svc, err := NewFromStore(st, WithSigma(2), WithMaxInFlight(1))
	if err != nil {
		t.Fatal(err)
	}
	defer svc.Close()

	// Saturate the bound directly, as an admitted action would.
	svc.inflightN.Add(1)
	defer svc.inflightN.Add(-1)

	g := graph.New(0)
	g.AddNode("C")
	var oe *OverloadError
	if _, err := svc.InsertGraph(context.Background(), g); !errors.As(err, &oe) {
		t.Fatalf("saturated insert: %v", err)
	}
	if err := svc.DeleteGraph(context.Background(), 0); !errors.As(err, &oe) {
		t.Fatalf("saturated delete: %v", err)
	}
}
