// Overload protection: bounded global and per-session in-flight action
// queues with typed shedding, plus the exponential-backoff retry helper
// front-ends use against transient rejections. Shedding is deliberately
// cheap and non-blocking — a rejected action never holds a lock or a pool
// slot — so the service's answer latency under 2x load stays governed by
// the admitted work, not by the queue of doomed work.

package service

import (
	"context"
	"errors"
	"fmt"
	"time"

	"prague/internal/faultinject"
	"prague/internal/metrics"
)

// ErrOverloaded is the sentinel all admission rejections wrap; callers test
// with errors.Is and back off. The concrete error is an *OverloadError
// carrying the retry-after hint.
var ErrOverloaded = errors.New("service overloaded")

// OverloadError is the typed admission rejection: which bound was hit and a
// deterministic hint for how long to back off before retrying (roughly one
// action-drain time). It unwraps to ErrOverloaded.
type OverloadError struct {
	// Scope is "global" (service-wide in-flight bound) or "session"
	// (per-session queue bound).
	Scope string
	// RetryAfter is the suggested backoff before the next attempt.
	RetryAfter time.Duration
}

func (e *OverloadError) Error() string {
	return fmt.Sprintf("service overloaded (%s bound, retry after %v)", e.Scope, e.RetryAfter)
}

func (e *OverloadError) Unwrap() error { return ErrOverloaded }

// retryAfterHint estimates one action-drain time: the configured action
// deadline when there is one, else a small constant.
func (s *Service) retryAfterHint() time.Duration {
	if d := s.opt.ActionDeadline; d > 0 {
		return d
	}
	return 5 * time.Millisecond
}

// shed records one rejected action.
func (s *Service) shed() { s.reg.Counter(metrics.CounterOverloadShed).Inc() }

// admit reserves per-session and global in-flight capacity for one
// evaluating action, returning the paired release. Both checks are
// non-blocking: when a bound is full the action is shed immediately with an
// *OverloadError instead of queueing behind work it would only slow down.
func (ss *Session) admit() (release func(), err error) {
	s := ss.svc
	if q := s.opt.SessionQueue; q > 0 {
		if int(ss.pending.Add(1)) > q {
			ss.pending.Add(-1)
			s.shed()
			return nil, fmt.Errorf("service: session %s: %w",
				ss.id, &OverloadError{Scope: "session", RetryAfter: s.retryAfterHint()})
		}
	} else {
		ss.pending.Add(1)
	}
	releaseGlobal, err := s.admitGlobal()
	if err != nil {
		ss.pending.Add(-1)
		return nil, err
	}
	return func() {
		releaseGlobal()
		ss.pending.Add(-1)
	}, nil
}

// Retry invokes fn until it succeeds or attempts are exhausted, sleeping an
// exponentially doubling backoff (starting at base) between attempts and
// honoring ctx. When the failure is an *OverloadError whose RetryAfter
// exceeds the computed backoff, the hint wins. Only transient failures are
// retried — ErrOverloaded and injected faults (faultinject.ErrInjected);
// any other error returns immediately. The terminal error is returned
// unwrapped-enough for errors.Is to keep working.
func Retry(ctx context.Context, attempts int, base time.Duration, fn func() error) error {
	if attempts < 1 {
		attempts = 1
	}
	if base <= 0 {
		base = time.Millisecond
	}
	var err error
	backoff := base
	for i := 0; i < attempts; i++ {
		if i > 0 {
			wait := backoff
			var oe *OverloadError
			if errors.As(err, &oe) && oe.RetryAfter > wait {
				wait = oe.RetryAfter
			}
			t := time.NewTimer(wait)
			select {
			case <-t.C:
			case <-ctx.Done():
				t.Stop()
				return fmt.Errorf("service: retry: %w", ctx.Err())
			}
			backoff *= 2
		}
		if err = fn(); err == nil {
			return nil
		}
		if !errors.Is(err, ErrOverloaded) && !errors.Is(err, faultinject.ErrInjected) {
			return err
		}
	}
	return err
}
