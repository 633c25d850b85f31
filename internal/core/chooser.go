package core

// The adaptive verify-prefilter ("filter chooser"). Per action, a small cost
// model picks how candidate graphs are screened before the VF2 verifier
// runs: rely on the A²F/A²I probe alone, add Grafil-style feature-count
// filtering, or add signature pruning (64-bit label/edge-triple presence
// masks plus size and degree bounds). No single filter wins on every query —
// count filtering pays off on fragments with repeated labels, masks on
// fragments with rare labels, and neither is worth per-candidate work when
// the probe already returned a handful of ids — so the arm is chosen per
// query from its shape and the pinned epoch's label statistics. Every arm is
// a sound superset filter for subgraph containment, so the verified answer
// set is identical across arms; the choice affects only how much work
// verification does.
//
// Both filters read the pinned snapshot's prefilter.Table, which the store
// owns: built by the first action that needs it, then derived row by row
// with every mutation, so an epoch advance costs the chooser nothing.

import (
	"context"
	"fmt"

	"prague/internal/graph"
	"prague/internal/prefilter"
	"prague/internal/trace"
)

// FilterMode configures the chooser.
type FilterMode int

const (
	// FilterAuto lets the cost model pick an arm per action (the default).
	FilterAuto FilterMode = iota
	// FilterProbe forces the A²F probe arm: no per-candidate prefilter.
	FilterProbe
	// FilterGrafil forces Grafil-style feature-count filtering.
	FilterGrafil
	// FilterSignature forces signature pruning.
	FilterSignature
)

func (m FilterMode) String() string {
	switch m {
	case FilterProbe:
		return "probe"
	case FilterGrafil:
		return "grafil"
	case FilterSignature:
		return "signature"
	default:
		return "auto"
	}
}

// FilterArm is the arm a decision landed on.
type FilterArm int

const (
	ArmProbe FilterArm = iota
	ArmGrafil
	ArmSignature
)

func (a FilterArm) String() string {
	switch a {
	case ArmGrafil:
		return "grafil"
	case ArmSignature:
		return "signature"
	default:
		return "probe"
	}
}

// FilterDecision records one chooser outcome, surfaced in trace spans and
// Engine.FilterExplain.
type FilterDecision struct {
	Arm        FilterArm
	Candidates int    // candidate count entering the prefilter
	Kept       int    // candidates surviving it (== Candidates for probe)
	FragEdges  int    // fragment size the decision was made for
	Reason     string // one-line cost-model rationale
}

// minPrefilterCands is the candidate count below which per-candidate
// prefiltering cannot recoup its own cost: a VF2 check on a pruned candidate
// fails fast anyway (label/degree mismatch at the root), so tiny batches go
// straight to the verifier.
const minPrefilterCands = 24

// SetFilterChooser configures the verify-prefilter mode. FilterAuto (the
// default) picks an arm per action; the forced modes pin one arm, which the
// parity tests and benchmarks use for A/B runs.
func (e *Engine) SetFilterChooser(m FilterMode) { e.chooserMode = m }

// FilterExplain renders the last chooser decision as a one-line explanation.
func (e *Engine) FilterExplain() string {
	d := e.lastChoice
	if d.Candidates == 0 && d.Reason == "" {
		return "filter: no decision yet"
	}
	return fmt.Sprintf("filter: arm=%s cands=%d→%d frag=%de reason=%s",
		d.Arm, d.Candidates, d.Kept, d.FragEdges, d.Reason)
}

// SetFilterObserver installs a callback invoked after every chooser decision
// (the service wires this to its metrics registry). A nil observer disables
// reporting.
func (e *Engine) SetFilterObserver(fn func(FilterDecision)) { e.filterObs = fn }

// chooseArm applies the cost model to a fragment whose candidate count is
// large enough to prefilter, returning the arm, its reason and — when the
// arm counts features — the fragment's profile, computed once. The ordering
// reflects where each filter's power actually comes from on index-probed
// candidates: a candidate list produced by FSG-list intersection already
// guarantees every single indexed feature is *present*, so presence masks
// alone rarely prune further — count multiplicity (Grafil) and size/degree
// bounds (signature) are what the probe cannot express.
func (e *Engine) chooseArm(tab *prefilter.Table, frag *graph.Graph) (FilterArm, string, prefilter.Profile) {
	switch e.chooserMode {
	case FilterGrafil:
		return ArmGrafil, "forced", tab.Profile(frag)
	case FilterSignature:
		return ArmSignature, "forced", prefilter.Profile{}
	}
	p := tab.Profile(frag)
	if p.Unknown {
		// A label or triple no live graph has: no candidate can contain the
		// fragment, and the count check rejects every candidate in O(1).
		return ArmGrafil, "oov-feature", p
	}
	if p.RepeatedFeatures() {
		// Repeated labels/triples: count requirements prune where presence
		// (which the index probe already established) cannot.
		return ArmGrafil, "repeated-features", p
	}
	if sel := tab.MinLabelSelectivity(frag); sel <= 0.5 {
		// A rare label with no multiplicity: the presence mask plus the
		// size/degree bounds are the cheapest per-candidate check.
		return ArmSignature, fmt.Sprintf("rare-label(sel=%.2f)", sel), p
	}
	// Common labels, no multiplicity: neither filter separates candidates
	// the probe has not already separated; skip per-candidate overhead.
	return ArmProbe, "low-power", p
}

// prefilter screens cands for fragment frag with the chosen arm, returning a
// sound candidate superset of the verified answer. The returned slice is
// either cands itself (probe arm) or freshly allocated — cached and memoized
// inputs are never mutated.
func (e *Engine) prefilter(ctx context.Context, frag *graph.Graph, cands []int) []int {
	d := FilterDecision{Candidates: len(cands), Kept: len(cands), FragEdges: frag.NumEdges()}
	var (
		tab   *prefilter.Table
		built bool
		prof  prefilter.Profile
	)
	switch {
	case e.chooserMode == FilterProbe:
		d.Arm, d.Reason = ArmProbe, "forced"
	case e.chooserMode == FilterAuto && len(cands) < minPrefilterCands:
		d.Arm, d.Reason = ArmProbe, fmt.Sprintf("cands=%d<min=%d", len(cands), minPrefilterCands)
	default:
		tab, built = e.snap.FilterTable()
		d.Arm, d.Reason, prof = e.chooseArm(tab, frag)
	}
	if d.Arm == ArmProbe {
		e.finishChoice(ctx, d, built)
		return cands
	}
	kept := make([]int, 0, len(cands))
	switch d.Arm {
	case ArmSignature:
		qs := prefilter.SigOf(frag)
		for _, id := range cands {
			if qs.Admits(tab.Row(id)) {
				kept = append(kept, id)
			}
		}
	case ArmGrafil:
		for _, id := range cands {
			if prof.Admits(tab.Row(id)) {
				kept = append(kept, id)
			}
		}
	}
	d.Kept = len(kept)
	e.finishChoice(ctx, d, built)
	return kept
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

// levelGate is the similarity path's per-level prefilter: one arm chosen for
// the whole level, with per-fragment query-side state precomputed once so the
// per-(fragment, candidate) check is allocation-free. The gate is immutable
// after levelPrefilter returns, so concurrent verify workers share it.
type levelGate struct {
	arm   FilterArm
	tab   *prefilter.Table
	sigs  []prefilter.Sig     // signature arm: per-fragment signatures
	profs []prefilter.Profile // grafil arm: per-fragment count requirements
}

// pass reports whether a candidate, given by its table row, survives the
// gate for fragment j.
func (lg *levelGate) pass(j int, r *prefilter.Row) bool {
	if lg.arm == ArmGrafil {
		return lg.profs[j].Admits(r)
	}
	return lg.sigs[j].Admits(r)
}

// passAny reports whether candidate id survives the gate for any of the n
// fragments — the level's verification is containsAnyGated, so a graph
// failing every fragment gate cannot be confirmed at this level.
func (lg *levelGate) passAny(n, id int) bool {
	r := lg.tab.Row(id)
	for j := 0; j < n; j++ {
		if lg.pass(j, r) {
			return true
		}
	}
	return false
}

// levelPrefilter chooses an arm for one similarity level and builds its gate:
// a pending graph only reaches VF2 for fragments whose features it can
// contain. Returns nil (no gating) when the chooser is off, or — in auto
// mode — when the pending set is too small to recoup per-candidate work. The
// decision is recorded like the exact path's (trace span, observer, Explain).
func (e *Engine) levelPrefilter(ctx context.Context, frags []*graph.Graph, pending []int) *levelGate {
	if len(frags) == 0 || e.chooserMode == FilterProbe {
		return nil
	}
	if e.chooserMode == FilterAuto && len(pending) < minPrefilterCands {
		return nil
	}
	tab, built := e.snap.FilterTable()
	lg := &levelGate{tab: tab}
	var reason string
	if e.chooserMode == FilterSignature {
		lg.arm, reason = ArmSignature, "forced"
	} else {
		// Every fragment is profiled once. In auto mode, multiplicity or an
		// out-of-vocabulary feature anywhere makes count filtering the
		// strongest gate; otherwise the signature's bounds are the cheapest
		// check that still adds to the probe.
		lg.profs = make([]prefilter.Profile, len(frags))
		for i, f := range frags {
			lg.profs[i] = tab.Profile(f)
		}
		lg.arm, reason = ArmGrafil, "forced"
		if e.chooserMode == FilterAuto {
			lg.arm, reason = ArmSignature, "bounds"
			for i := range lg.profs {
				if p := &lg.profs[i]; p.Unknown || p.RepeatedFeatures() {
					lg.arm, reason = ArmGrafil, "repeated-features"
					break
				}
			}
		}
	}
	if lg.arm == ArmSignature {
		lg.profs = nil
		lg.sigs = make([]prefilter.Sig, len(frags))
		for i, f := range frags {
			lg.sigs[i] = prefilter.SigOf(f)
		}
	}
	kept := 0
	for _, id := range pending {
		if lg.passAny(len(frags), id) {
			kept++
		}
	}
	e.finishChoice(ctx, FilterDecision{
		Arm: lg.arm, Candidates: len(pending), Kept: kept,
		FragEdges: frags[0].NumEdges(), Reason: reason,
	}, built)
	return lg
}
