package core

import (
	"context"

	"prague/internal/workpool"
)

// SetPool injects a shared bounded verification pool (typically owned by a
// service multiplexing many sessions over one database). The engine does
// not close the pool. A nil pool restores inline verification.
func (e *Engine) SetPool(p *workpool.Pool) { e.pool = p }

// filter runs pred over ids as one verification batch on the shared pool (a
// nil pool verifies inline), whatever the store's layout: the pool alone
// bounds and supplies verification parallelism. Survivors keep the ids'
// ascending order. The batch polls ctx between candidates and returns the
// verified part with ctx.Err() on cancellation, a sound subset the
// degradation ladder flags Truncated. Recovered predicate panics fail only
// their own candidate; each one is accounted as a run fault so the outcome
// is flagged Truncated.
func (e *Engine) filter(ctx context.Context, ids []int, pred func(id int) bool) ([]int, error) {
	out, st, err := e.pool.FilterStats(ctx, ids, pred)
	if st.Panics > 0 {
		e.runFaults.Add(int64(st.Panics))
	}
	return out, err
}
