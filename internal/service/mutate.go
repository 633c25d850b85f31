// Online mutation: the service-level entry points for growing and shrinking
// the data graph database while sessions are formulating. Mutations go
// through the same global admission bound as evaluating actions (a mutation
// storm must not starve queries), are measured, and publish a new store
// epoch that in-flight actions are isolated from by snapshot pinning.

package service

import (
	"context"
	"fmt"

	"prague/internal/graph"
	"prague/internal/metrics"
	"prague/internal/slo"
)

// admitGlobal reserves service-wide in-flight capacity for one action (an
// evaluation or a mutation), returning the paired release. Non-blocking:
// when the bound is full the action is shed with an *OverloadError. Two
// concurrent admits racing the last slot may transiently both shed
// (under-admission), never over-admit.
func (s *Service) admitGlobal() (release func(), err error) {
	n := s.inflightN.Add(1)
	if s.inflightLimit > 0 && n > s.inflightLimit {
		s.inflightN.Add(-1)
		s.shed("global")
		return nil, fmt.Errorf("service: %w",
			&OverloadError{Scope: "global", RetryAfter: s.retryAfterHint()})
	}
	s.col.AddRate(slo.RateAdmitted, 1)
	return func() { s.inflightN.Add(-1) }, nil
}

// InsertGraph adds a data graph to the store online: the graph is classified
// against the frozen fragment vocabulary, the owning shard's index lists are
// extended incrementally (no rebuild), and a new epoch is published. Sessions
// with actions in flight keep their pinned epoch; their next action observes
// the insert. Returns the assigned graph id. The store takes ownership of g
// and renumbers g.ID.
func (s *Service) InsertGraph(ctx context.Context, g *graph.Graph) (int, error) {
	if err := ctx.Err(); err != nil {
		return -1, fmt.Errorf("service: insert: %w", err)
	}
	release, err := s.admitGlobal()
	if err != nil {
		return -1, err
	}
	defer release()
	s.mu.Lock()
	closed := s.closed
	s.mu.Unlock()
	if closed {
		return -1, fmt.Errorf("service: insert: %w", ErrServiceClosed)
	}
	t0 := s.clk.Now()
	id, err := s.st.InsertGraph(g)
	if err != nil {
		return -1, fmt.Errorf("service: insert: %w", err)
	}
	s.reg.Histogram(metrics.HistMutation).Observe(s.clk.Now().Sub(t0))
	s.reg.Counter(metrics.CounterGraphsInserted).Inc()
	s.reg.Counter(metrics.CounterStoreEpoch).Set(int64(s.st.Epoch()))
	return id, nil
}

// DeleteGraph removes a data graph online: the slot is tombstoned (ids are never
// reused), the id is spliced out of the owning shard's index lists, and a
// new epoch is published. Deleting the last live graph is refused — every
// layer assumes a non-empty database.
func (s *Service) DeleteGraph(ctx context.Context, graphID int) error {
	if err := ctx.Err(); err != nil {
		return fmt.Errorf("service: delete graph: %w", err)
	}
	release, err := s.admitGlobal()
	if err != nil {
		return err
	}
	defer release()
	s.mu.Lock()
	closed := s.closed
	s.mu.Unlock()
	if closed {
		return fmt.Errorf("service: delete graph: %w", ErrServiceClosed)
	}
	t0 := s.clk.Now()
	if err := s.st.DeleteGraph(graphID); err != nil {
		return fmt.Errorf("service: delete graph: %w", err)
	}
	s.reg.Histogram(metrics.HistMutation).Observe(s.clk.Now().Sub(t0))
	s.reg.Counter(metrics.CounterGraphsDeleted).Inc()
	s.reg.Counter(metrics.CounterStoreEpoch).Set(int64(s.st.Epoch()))
	return nil
}

// Epoch returns the store's current epoch: 0 at construction, +1 per
// mutation. Sessions report the epoch each Run was pinned to in
// core.RunOutcome.Epoch.
func (s *Service) Epoch() uint64 { return s.st.Epoch() }
