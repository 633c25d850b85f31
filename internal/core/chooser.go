package core

// The verify prefilter. Before VF2 runs, a candidate list may be screened
// with Grafil-style feature counts: a graph containing a fragment has at
// least as many of each node label and labeled edge triple as the fragment.
// The index probe that produced the list already guarantees that every
// indexed feature is present, so counting separates candidates only when the
// fragment needs some feature more than once, or needs one that no live
// graph has (then no candidate survives). One rule follows (countFilter): a
// list of at least minPrefilterCands ids is count-filtered when some
// fragment repeats a feature or uses an unknown one; every other list goes
// straight to VF2. The filter is a sound superset filter for subgraph
// containment, so the verified answer set does not depend on it, only the
// verification work.
//
// The counts are the pinned snapshot's prefilter.Table, which the store
// owns: built by the first action that needs it, then derived row by row
// with every mutation, so an epoch advance costs the prefilter nothing.

import (
	"context"
	"fmt"

	"prague/internal/graph"
	"prague/internal/prefilter"
	"prague/internal/trace"
)

// FilterArm is the filter a decision landed on.
type FilterArm int

const (
	ArmProbe  FilterArm = iota // no prefilter: the probe's list goes to VF2
	ArmGrafil                  // feature-count filtering
)

func (a FilterArm) String() string {
	if a == ArmGrafil {
		return "grafil"
	}
	return "probe"
}

// FilterDecision records one prefilter decision, surfaced in trace spans and
// Engine.FilterExplain.
type FilterDecision struct {
	Arm        FilterArm
	Candidates int    // candidate count entering the prefilter
	Kept       int    // candidates surviving it (== Candidates for probe)
	FragEdges  int    // fragment size the decision was made for
	Reason     string // one-line rationale
}

// minPrefilterCands is the candidate count below which per-candidate
// prefiltering cannot recoup its own cost: a VF2 check on a pruned candidate
// fails fast anyway (label/degree mismatch at the root), so tiny batches go
// straight to the verifier.
const minPrefilterCands = 24

// FilterExplain renders the last prefilter decision as a one-line
// explanation.
func (e *Engine) FilterExplain() string {
	d := e.lastChoice
	if d.Candidates == 0 && d.Reason == "" {
		return "filter: no decision yet"
	}
	return fmt.Sprintf("filter: arm=%s cands=%d→%d frag=%de reason=%s",
		d.Arm, d.Candidates, d.Kept, d.FragEdges, d.Reason)
}

// SetFilterObserver installs a callback invoked after every prefilter
// decision (the service wires this to its metrics registry). A nil observer
// disables reporting.
func (e *Engine) SetFilterObserver(fn func(FilterDecision)) { e.filterObs = fn }

// countReason says why p's counts can prune what the index probe left, or
// returns "" when they cannot.
func countReason(p *prefilter.Profile) string {
	switch {
	case p.Unknown:
		return "oov-feature"
	case p.RepeatedFeatures():
		return "repeated-features"
	}
	return ""
}

// finishChoice publishes a decision: the filter_choose span (with a
// table_build count when this action paid for the pinned epoch's full table
// build), the pruned counter, Explain, and the observer.
func (e *Engine) finishChoice(ctx context.Context, d FilterDecision, built bool) {
	e.lastChoice = d
	if sp := trace.SpanFromContext(ctx); sp != nil {
		c := sp.Child(trace.KindFilterChoose)
		c.Add(d.Arm.String(), int64(d.Kept))
		if built {
			c.Add("table_build", 1)
		}
		c.End()
		sp.Add("filter_pruned", int64(d.Candidates-d.Kept))
	}
	if e.filterObs != nil {
		e.filterObs(d)
	}
}

// countGate is a count filter's per-fragment state: each fragment's
// profile, computed once, so the per-(fragment, candidate) check is
// allocation-free. It is immutable once countFilter returns, so concurrent
// verify workers share it.
type countGate struct {
	tab   *prefilter.Table
	profs []prefilter.Profile
}

// passAny reports whether graph id's counts admit any of the fragments: a
// graph admitting none can contain none.
func (lg *countGate) passAny(id int) bool {
	r := lg.tab.Row(id)
	for j := range lg.profs {
		if lg.profs[j].Admits(r) {
			return true
		}
	}
	return false
}

// countFilter applies the rule to ids for frags: one fragment on the exact
// path, a similarity level's fragments on the other. When ids is long
// enough and some fragment's counts can prune, it returns the ids whose
// counts admit at least one fragment, and the gate that spares each kept id
// VF2 on the fragments it cannot contain. Otherwise it returns ids itself
// and a nil gate. A kept list is freshly allocated — cached and memoized
// inputs are never mutated. Every decision on a non-empty list is published.
func (e *Engine) countFilter(ctx context.Context, frags []*graph.Graph, ids []int) ([]int, *countGate) {
	if len(frags) == 0 || len(ids) == 0 {
		return ids, nil
	}
	d := FilterDecision{Candidates: len(ids), Kept: len(ids), FragEdges: frags[0].NumEdges()}
	if len(ids) < minPrefilterCands {
		d.Reason = fmt.Sprintf("cands=%d<min=%d", len(ids), minPrefilterCands)
		e.finishChoice(ctx, d, false)
		return ids, nil
	}
	tab, built := e.snap.FilterTable()
	lg := &countGate{tab: tab, profs: make([]prefilter.Profile, len(frags))}
	for i, f := range frags {
		lg.profs[i] = tab.Profile(f)
		if d.Reason == "" {
			d.Reason = countReason(&lg.profs[i])
		}
	}
	if d.Reason == "" {
		d.Reason = "no-repeated-features"
		e.finishChoice(ctx, d, built)
		return ids, nil
	}
	d.Arm = ArmGrafil
	kept := make([]int, 0, len(ids))
	for _, id := range ids {
		if lg.passAny(id) {
			kept = append(kept, id)
		}
	}
	d.Kept = len(kept)
	e.finishChoice(ctx, d, built)
	return kept, lg
}
