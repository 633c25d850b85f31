package core

import "context"

// SimilaritySets returns the per-level Rfree and Rver sets of the engine's
// similarity window, highest SPIG level first, as sorted id lists.
func SimilaritySets(e *Engine) (free, ver [][]int) {
	for i := range e.sim {
		free = append(free, e.sim[i].free.AppendTo(nil))
		ver = append(ver, e.sim[i].ver.AppendTo(nil))
	}
	return free, ver
}

// RefreshWithoutMemo recomputes the engine's candidate state with the
// per-class candidate memo cleared, as the first refresh of an epoch does.
func RefreshWithoutMemo(e *Engine) (StepOutcome, error) {
	e.candMemo = classMemo{}
	return e.refresh(context.Background())
}
