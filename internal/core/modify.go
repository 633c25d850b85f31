package core

import (
	"context"
	"fmt"
	"time"

	"prague/internal/graph"
	"prague/internal/intset"
	"prague/internal/spig"
)

// Suggestion is the engine's recommendation for which edge to delete when
// the exact candidate set is empty (Algorithm 6 lines 2-8).
type Suggestion struct {
	Step       int // the edge e_d to delete
	Candidates int // |Rq'| after deleting it
}

// SuggestDeletion recommends the deletable edge whose removal yields the
// largest exact candidate set, by matching each q' = q - e_i, via
// canonical-code (CAM) equality, against the (|q|-1)-level of the SPIG of its
// largest step.
func (e *Engine) SuggestDeletion() (Suggestion, error) {
	if e.q.Size() <= 1 {
		return Suggestion{}, fmt.Errorf("core: nothing to suggest on a %d-edge query", e.q.Size())
	}
	e.repin()
	var (
		cands []int // the deletable steps
		vs    []*spig.Vertex
	)
	steps := e.q.Steps()
	for _, s := range steps {
		if !e.q.CanDelete(s) {
			continue
		}
		rest := intset.Diff(steps, []int{s})
		frag, connected := e.q.FragmentOf(rest)
		if !connected {
			continue
		}
		// q - e_s is the level-|q|-1 vertex of the SPIG of its largest step:
		// the vertex Target returns once e_s is deleted, so this batch
		// memoizes the class DeleteEdge's refresh reads.
		var v *spig.Vertex
		if sp := e.spigs.Spig(rest[len(rest)-1]); sp != nil {
			v = sp.FindByCode(len(rest), graph.CanonicalCode(frag))
		}
		if v == nil {
			continue // cannot happen for a well-formed SPIG set
		}
		cands, vs = append(cands, s), append(vs, v)
	}
	best := Suggestion{Step: -1, Candidates: -1}
	lists, errs := make([][]int, len(vs)), make([]error, len(vs))
	e.exactSubCandidatesAll(context.Background(), vs, 0, lists, errs)
	for i, s := range cands {
		if errs[i] != nil {
			continue // an unreachable shard disqualifies this edge, not the whole suggestion
		}
		if n := len(lists[i]); n > best.Candidates {
			best = Suggestion{Step: s, Candidates: n}
		}
	}
	if best.Step < 0 {
		return Suggestion{}, fmt.Errorf("core: no deletable edge")
	}
	return best, nil
}

// DeleteEdge handles the Modify action (Algorithm 6): remove the edge drawn
// at the given step (any edge, not necessarily the suggested one), update
// the SPIG set, and recompute the candidate state. The modified query must
// stay connected. The candidate memo is kept per fragment class, so the
// recomputation probes only classes never resolved at this epoch; on a
// remote layout a similarity-mode deletion finds even the window's new
// bottom level resolved (similarSubCandidates' riders).
func (e *Engine) DeleteEdge(step int) (StepOutcome, error) {
	return e.DeleteEdgeCtx(context.Background(), step)
}

// DeleteEdgeCtx is the context-aware DeleteEdge: candidate recomputation
// polls cancellation between SPIG levels.
func (e *Engine) DeleteEdgeCtx(ctx context.Context, step int) (StepOutcome, error) {
	t0 := time.Now()
	e.repin()
	if err := e.q.DeleteEdge(step); err != nil {
		return StepOutcome{}, err
	}
	e.spigs.DeleteEdge(step)
	out, err := e.refresh(ctx)
	if err != nil {
		return StepOutcome{}, fmt.Errorf("core: delete edge: %w", err)
	}
	e.stats.ModificationTime = append(e.stats.ModificationTime, time.Since(t0))
	return out, nil
}

// DeleteEdges removes several edges in one modification; only the final
// query must be connected (the multi-edge extension the paper's §VII
// mentions). All-or-nothing.
func (e *Engine) DeleteEdges(steps []int) (StepOutcome, error) {
	t0 := time.Now()
	e.repin()
	if err := e.q.DeleteEdges(steps); err != nil {
		return StepOutcome{}, err
	}
	for _, s := range steps {
		e.spigs.DeleteEdge(s)
	}
	out, err := e.refresh(context.Background())
	if err != nil {
		return StepOutcome{}, fmt.Errorf("core: delete edges: %w", err)
	}
	e.stats.ModificationTime = append(e.stats.ModificationTime, time.Since(t0))
	return out, nil
}

// RelabelNode changes a node's label — the paper's footnote-5 modification,
// expressed as deleting the node's incident edges and re-inserting them: the
// incident edges receive fresh step labels, their old SPIGs are dropped, and
// new SPIGs are constructed in ascending label order.
func (e *Engine) RelabelNode(node int, label string) (StepOutcome, error) {
	t0 := time.Now()
	e.repin()
	oldSteps, newSteps, err := e.q.RelabelNode(node, label)
	if err != nil {
		return StepOutcome{}, err
	}
	for _, s := range oldSteps {
		e.spigs.DeleteEdge(s)
	}
	for _, s := range newSteps {
		if _, err := e.spigs.Construct(e.q, s); err != nil {
			return StepOutcome{}, err
		}
	}
	out, err := e.refresh(context.Background())
	if err != nil {
		return StepOutcome{}, fmt.Errorf("core: relabel node: %w", err)
	}
	e.stats.ModificationTime = append(e.stats.ModificationTime, time.Since(t0))
	return out, nil
}
