package core

import (
	"context"
	"errors"
	"fmt"
	"time"

	"prague/internal/faultinject"
	"prague/internal/trace"
)

// DegradeStage identifies which rung of the degradation ladder produced a
// Run's answer. The ladder trades completeness for bounded SRT, in order:
// full verification, partial (verified-subset) answers, verification-free
// similarity bounds, and finally the session's last known good result set.
type DegradeStage uint8

const (
	// StageFull: evaluation finished inside the budget with no verification
	// faults; the results are exact (complete and correct).
	StageFull DegradeStage = iota
	// StagePartial: verification was cut short (budget) or some candidate
	// checks faulted; the results are a verified subset of the truth.
	StagePartial
	// StageSimilarity: the budget expired before anything was verified; the
	// answer is the verification-free similarity candidates already in hand,
	// whose distances are sound upper bounds.
	StageSimilarity
	// StageCachedGood: nothing could be computed inside the budget; the
	// session's last fault-free result set (possibly for an older revision of
	// the query) is served.
	StageCachedGood
)

func (s DegradeStage) String() string {
	switch s {
	case StagePartial:
		return "partial"
	case StageSimilarity:
		return "similarity_fallback"
	case StageCachedGood:
		return "cached_good"
	default:
		return "full"
	}
}

// Stages lists the ladder's rungs in degradation order.
func Stages() []DegradeStage {
	return []DegradeStage{StageFull, StagePartial, StageSimilarity, StageCachedGood}
}

// RunOutcome is the detailed Run answer: the ranked results plus how the
// ladder produced them. Truncated results are always a sound subset — every
// reported id is a true answer and every reported distance is a valid upper
// bound — but ids may be missing; callers that need exactness retry when
// Truncated is set.
type RunOutcome struct {
	Results   []Result
	Truncated bool
	Stage     DegradeStage
	// Faults counts candidate checks dropped by injected or recovered
	// verification failures during this Run (each dropped check can hide at
	// most one answer).
	Faults int64
	// Epoch is the store epoch this Run was pinned to: every id and distance
	// in Results was computed against that single snapshot, even if
	// concurrent mutations published newer epochs mid-evaluation.
	Epoch uint64
}

// SetRunBudget caps the wall-clock evaluation time of each Run action. When
// the budget expires with the caller's context still live, Run degrades down
// the ladder instead of failing: partial verified results, then
// verification-free similarity bounds, then the last known good answer, and
// only as a last resort a typed ErrBudgetExhausted. d ≤ 0 disables the
// budget (the default).
func (e *Engine) SetRunBudget(d time.Duration) { e.runBudget = d }

// RunBudget returns the configured per-Run evaluation budget (0 = none).
func (e *Engine) RunBudget() time.Duration { return e.runBudget }

// RunDetailedCtx is RunCtx reporting how the answer was produced. It is the
// ladder's driver: evaluation runs under the configured budget, and on
// budget expiry or verification faults the outcome is degraded — never
// silently wrong. A cancelled caller context still returns the partial
// results with an error wrapping ctx.Err(), exactly like RunCtx.
func (e *Engine) RunDetailedCtx(ctx context.Context) (RunOutcome, error) {
	if e.q.Size() == 0 {
		return RunOutcome{}, fmt.Errorf("core: run: %w", ErrEmptyQuery)
	}
	if err := ctx.Err(); err != nil {
		return RunOutcome{}, fmt.Errorf("core: run: %w", err)
	}
	t0 := time.Now()
	defer func() { e.stats.RunTime = time.Since(t0) }()
	snap := e.repin()
	e.runFaults.Store(0)

	rctx := ctx
	if e.runBudget > 0 {
		var cancel context.CancelFunc
		rctx, cancel = context.WithTimeout(ctx, e.runBudget)
		defer cancel()
	}

	results, err := e.evaluate(rctx)
	faults := e.runFaults.Load()
	out := RunOutcome{Results: results, Faults: faults, Epoch: snap.Epoch()}

	switch {
	case err == nil && faults == 0:
		out.Stage = StageFull
		// Non-nil even for an empty answer: "no results" is a perfectly good
		// last known answer, distinct from "never completed a run".
		e.lastGood = append(make([]Result, 0, len(results)), results...)
		e.lastGoodEpoch = snap.Epoch()
	case err == nil || errors.Is(err, ErrVerifyFaults):
		// Faulted verification dropped candidates but evaluation finished:
		// what survived is a verified subset of the truth.
		err = nil
		out.Truncated = true
		out.Stage = StagePartial
	case rctx.Err() != nil && ctx.Err() == nil:
		// The run budget expired while the caller is still waiting: degrade
		// instead of failing.
		err = nil
		switch {
		case len(results) > 0:
			out.Truncated = true
			out.Stage = StagePartial
		case e.hasFree():
			out.Results = e.quickSimilarity()
			out.Truncated = true
			out.Stage = StageSimilarity
		case e.lastGood != nil && e.lastGoodEpoch == snap.Epoch():
			// The cached-good rung is epoch-tagged: an answer computed
			// before a mutation may cite deleted graphs or miss inserted
			// ones, so it is only served while the store is unchanged.
			out.Results = append([]Result(nil), e.lastGood...)
			out.Truncated = true
			out.Stage = StageCachedGood
		default:
			out.Truncated = true
			out.Stage = StagePartial
			err = fmt.Errorf("core: run: budget %v exhausted with nothing to serve: %w",
				e.runBudget, ErrBudgetExhausted)
		}
	}
	e.annotateRun(ctx, out)
	return out, err
}

// annotateRun stamps the ladder outcome onto the action's trace span, so
// degraded actions are visible in /trace/slow and per-action trees.
func (e *Engine) annotateRun(ctx context.Context, out RunOutcome) {
	sp := trace.SpanFromContext(ctx)
	if sp == nil {
		return
	}
	sp.SetAttr("degrade_stage", out.Stage.String())
	if out.Truncated {
		sp.Add("truncated", 1)
	}
	if out.Faults > 0 {
		sp.Add("verify_faults", out.Faults)
	}
}

// quickSimilarity ranks the verification-free similarity candidates already
// in hand (Rfree from the last refresh) without any verification work. Every
// id provably contains one of the query's level-i fragments, so it is a true
// similarity answer with subgraph distance ≤ |q|-i: membership is sound and
// each reported distance is a valid upper bound — exactly the Truncated
// contract. Used when the run budget expires before anything was verified.
func (e *Engine) quickSimilarity() []Result {
	res, _ := e.rank.rank(e.snap.NumGraphs(), e.q.Size(), nil, e.sim, nil, nil)
	return res
}

// hasFree reports whether some level holds a verification-free candidate.
func (e *Engine) hasFree() bool {
	for i := range e.sim {
		if !e.sim[i].free.Empty() {
			return true
		}
	}
	return false
}

// verifyPred wraps a verification predicate with the SiteVerify fault hook:
// an injected error drops the candidate and counts one run fault, so the
// outcome is flagged Truncated rather than silently complete. Injected
// panics propagate into the workpool's per-candidate isolation, whose
// recovered count flows back through filter. With no injector armed the base
// predicate is returned untouched.
func (e *Engine) verifyPred(ctx context.Context, base func(id int) bool) func(id int) bool {
	inj := faultinject.FromContext(ctx)
	if inj == nil {
		return base
	}
	return func(id int) bool {
		if err := inj.Hit(ctx, faultinject.SiteVerify); err != nil {
			e.runFaults.Add(1)
			return false
		}
		return base(id)
	}
}
