package service

import (
	"context"
	"errors"
	"fmt"
	"testing"
	"time"

	"prague/internal/metrics"
)

// TestAdmissionBounds drives the two admission bounds deterministically by
// holding reservations directly (white-box: admit is what every evaluating
// action calls first).
func TestAdmissionBounds(t *testing.T) {
	db, idx := smallFixture(t)
	reg := metrics.NewRegistry()
	s, err := newMem(db, idx, WithMetrics(reg), WithMaxInFlight(2), WithSessionQueue(1))
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close()
	ctx := context.Background()
	a, _ := s.Create(ctx)
	b, _ := s.Create(ctx)

	// Per-session bound: a second action on the same session sheds.
	relA, err := a.admit()
	if err != nil {
		t.Fatal(err)
	}
	_, err = a.admit()
	if !errors.Is(err, ErrOverloaded) {
		t.Fatalf("session bound not enforced: %v", err)
	}
	var oe *OverloadError
	if !errors.As(err, &oe) || oe.Scope != "session" || oe.RetryAfter <= 0 {
		t.Fatalf("want session-scope OverloadError with hint, got %#v", oe)
	}

	// Global bound: sessions a and b fill the two slots; b's next sheds
	// globally (its own session queue is free again only if pending < 1, so
	// use a third session).
	relB, err := b.admit()
	if err != nil {
		t.Fatal(err)
	}
	c, _ := s.Create(ctx)
	_, err = c.admit()
	if !errors.As(err, &oe) || oe.Scope != "global" {
		t.Fatalf("global bound not enforced: %v", err)
	}
	if got := reg.Snapshot().Counters[metrics.CounterOverloadShed]; got != 2 {
		t.Fatalf("overload_shed_total = %d, want 2", got)
	}

	// Released capacity admits again, and real actions run.
	relA()
	relB()
	if _, err := c.AddNode("C"); err != nil {
		t.Fatal(err)
	}
	u, _ := c.AddNode("C")
	v, _ := c.AddNode("N")
	if _, err := c.AddEdge(ctx, u, v); err != nil {
		t.Fatalf("action after release: %v", err)
	}
}

// TestRetryBacksOffOnOverload checks the retry helper's contract: transient
// failures retried with growing backoff (respecting RetryAfter hints),
// permanent errors returned immediately, cancellation honored mid-backoff.
func TestRetryBacksOffOnOverload(t *testing.T) {
	calls := 0
	err := Retry(context.Background(), 5, time.Microsecond, func() error {
		calls++
		if calls < 3 {
			return &OverloadError{Scope: "global", RetryAfter: time.Microsecond}
		}
		return nil
	})
	if err != nil || calls != 3 {
		t.Fatalf("retry: err=%v calls=%d", err, calls)
	}

	permanent := errors.New("permanent")
	calls = 0
	err = Retry(context.Background(), 5, time.Microsecond, func() error {
		calls++
		return permanent
	})
	if !errors.Is(err, permanent) || calls != 1 {
		t.Fatalf("permanent error retried: err=%v calls=%d", err, calls)
	}

	calls = 0
	err = Retry(context.Background(), 2, time.Microsecond, func() error {
		calls++
		return fmt.Errorf("wrapped: %w", ErrOverloaded)
	})
	if !errors.Is(err, ErrOverloaded) || calls != 2 {
		t.Fatalf("exhausted attempts: err=%v calls=%d", err, calls)
	}

	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	err = Retry(ctx, 3, time.Hour, func() error { return &OverloadError{Scope: "global"} })
	if !errors.Is(err, context.Canceled) {
		t.Fatalf("cancelled backoff: %v", err)
	}
}

// TestOverloadedActionsShedNotQueue: with the global bound held, every
// evaluating action type sheds with the typed error and sheds fast (no
// waiting on the serializing mutex).
func TestOverloadedActionsShedNotQueue(t *testing.T) {
	db, idx := smallFixture(t)
	s, err := newMem(db, idx, WithMaxInFlight(1))
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close()
	ctx := context.Background()
	ss, _ := s.Create(ctx)
	u, _ := ss.AddNode("C")
	v, _ := ss.AddNode("N")
	if _, err := ss.AddEdge(ctx, u, v); err != nil {
		t.Fatal(err)
	}

	hold, err := ss.admit()
	if err != nil {
		t.Fatal(err)
	}
	if _, err := ss.AddEdge(ctx, u, v); !errors.Is(err, ErrOverloaded) {
		t.Fatalf("AddEdge: %v", err)
	}
	if _, err := ss.DeleteEdge(ctx, 1); !errors.Is(err, ErrOverloaded) {
		t.Fatalf("DeleteEdge: %v", err)
	}
	if _, err := ss.ChooseSimilarity(ctx); !errors.Is(err, ErrOverloaded) {
		t.Fatalf("ChooseSimilarity: %v", err)
	}
	if _, err := ss.Run(ctx); !errors.Is(err, ErrOverloaded) {
		t.Fatalf("Run: %v", err)
	}
	// Reads stay available under overload: shedding protects evaluation
	// capacity, not visibility.
	if _, err := ss.Describe(); err != nil {
		t.Fatalf("Describe under overload: %v", err)
	}
	hold()
	if _, err := ss.Run(ctx); err != nil {
		t.Fatalf("Run after release: %v", err)
	}
}
