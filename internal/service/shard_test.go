package service

import (
	"context"
	"errors"
	"math/rand"
	"testing"

	"prague/internal/metrics"
	"prague/internal/store"
)

// TestWithShards runs a small session fleet against a service over a 4-way
// sharded store and checks the shard-count gauge and the store accessor.
// Result correctness across layouts is difftest's job; this pins the service
// wiring.
func TestWithShards(t *testing.T) {
	db, idx := smallFixture(t)
	st, err := store.NewSharded(db, idx, 4)
	if err != nil {
		t.Fatal(err)
	}
	reg := metrics.NewRegistry()
	svc, err := NewFromStore(st, WithSigma(2), WithSessionTTL(0), WithMetrics(reg))
	if err != nil {
		t.Fatal(err)
	}
	defer svc.Close()

	if svc.Store().NumShards() != 4 {
		t.Fatalf("NumShards = %d", svc.Store().NumShards())
	}
	if got := reg.Counter(metrics.CounterShardCount).Value(); got != 4 {
		t.Errorf("shard_count gauge = %d", got)
	}

	ctx := context.Background()
	r := rand.New(rand.NewSource(5))
	for i := 0; i < 6; i++ {
		if err := formulateAndRun(ctx, svc, r); err != nil {
			t.Fatalf("session %d: %v", i, err)
		}
	}
}

// TestWithStore checks that the store a service is handed is served as-is,
// that a monolithic store reports one shard, and that a nil store fails
// typed.
func TestWithStore(t *testing.T) {
	db, idx := smallFixture(t)
	pre, err := store.NewSharded(db, idx, 3)
	if err != nil {
		t.Fatal(err)
	}
	svc, err := NewFromStore(pre, WithSessionTTL(0))
	if err != nil {
		t.Fatal(err)
	}
	defer svc.Close()
	if svc.Store() != pre {
		t.Error("the store handed in is not the one served")
	}

	mono, err := newMem(db, idx, WithSessionTTL(0))
	if err != nil {
		t.Fatal(err)
	}
	defer mono.Close()
	if mono.Store().NumShards() != 1 {
		t.Errorf("monolithic store has %d shards", mono.Store().NumShards())
	}
	if _, err := NewFromStore(nil); !errors.Is(err, store.ErrEmptyDatabase) {
		t.Errorf("NewFromStore(nil) = %v, want ErrEmptyDatabase", err)
	}
}
