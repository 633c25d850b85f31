package core

// The adaptive verify-prefilter ("filter chooser"). Per action, a small cost
// model picks how candidate graphs are screened before the VF2 verifier
// runs: rely on the A²F/A²I probe alone, add Grafil-style feature-count
// filtering (internal/grafil's LightIndex), or add signature pruning
// (64-bit label/edge-triple presence masks plus size and degree bounds). No
// single filter wins on every query — count filtering pays off on fragments
// with repeated labels, masks on fragments with rare labels, and neither is
// worth per-candidate work when the probe already returned a handful of ids
// — so the arm is chosen per query from its shape and the pinned epoch's
// label statistics. Every arm is a sound superset filter for subgraph
// containment, so the verified answer set is identical across arms; the
// choice affects only how much work verification does.

import (
	"context"
	"fmt"
	"hash/fnv"
	"sync"

	"prague/internal/grafil"
	"prague/internal/graph"
	"prague/internal/store"
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

// sigEntry is one data graph's signature: presence masks and cheap bounds.
type sigEntry struct {
	labelMask  uint64
	tripleMask uint64
	nodes      int32
	edges      int32
	maxDeg     int32
}

// sigTable holds the per-epoch chooser state: one signature per live graph
// (slab indexed by graph id) and the Grafil-light count index.
type sigTable struct {
	sigs  []sigEntry
	light *grafil.LightIndex
}

func maskBit(s string) uint64 {
	h := fnv.New32a()
	h.Write([]byte(s))
	return 1 << (h.Sum32() & 63)
}

func graphSig(g *graph.Graph) sigEntry {
	var e sigEntry
	e.nodes = int32(g.NumNodes())
	e.edges = int32(g.NumEdges())
	for v, l := range g.Labels() {
		e.labelMask |= maskBit(l)
		if d := int32(g.Degree(v)); d > e.maxDeg {
			e.maxDeg = d
		}
	}
	for _, ed := range g.Edges() {
		la, lb := g.Label(ed.U), g.Label(ed.V)
		if lb < la {
			la, lb = lb, la
		}
		e.tripleMask |= maskBit(la + "\x00" + g.EdgeLabel(ed.U, ed.V) + "\x00" + lb)
	}
	return e
}

// passes reports whether data signature d can contain query signature q: a
// necessary condition for subgraph isomorphism (masks are presence unions,
// so a missing query bit proves a missing label/triple).
func (q sigEntry) passes(d sigEntry) bool {
	return q.labelMask&^d.labelMask == 0 &&
		q.tripleMask&^d.tripleMask == 0 &&
		q.nodes <= d.nodes && q.edges <= d.edges && q.maxDeg <= d.maxDeg
}

// chooserTabCache shares signature tables across engines. Sessions are
// cheap and short-lived (the service creates one engine per user session),
// while the table costs a full pass over the live graphs — rebuilding it per
// session would dominate the verify hot path's allocation profile. Tables
// are keyed by Snapshot.CacheTag (layout + content fingerprint + epoch), so
// two snapshots sharing a tag are guaranteed to agree on every graph the
// table describes. A small FIFO bounds the cache across epochs and stores.
var chooserTabCache = struct {
	sync.Mutex
	entries map[string]*chooserTabHolder
	order   []string
}{entries: map[string]*chooserTabHolder{}}

type chooserTabHolder struct {
	once sync.Once
	tab  *sigTable
}

const chooserTabCacheMax = 8

// ensureChooserTab returns the signature table for the pinned epoch, building
// it at most once service-wide per (store, epoch). Per-candidate checks
// against the table are allocation-free.
func (e *Engine) ensureChooserTab() *sigTable {
	epoch := e.snap.Epoch()
	if e.chooserTab != nil && e.chooserEpoch == epoch {
		return e.chooserTab
	}
	tag := e.snap.CacheTag()
	chooserTabCache.Lock()
	h, ok := chooserTabCache.entries[tag]
	if !ok {
		h = &chooserTabHolder{}
		chooserTabCache.entries[tag] = h
		chooserTabCache.order = append(chooserTabCache.order, tag)
		if len(chooserTabCache.order) > chooserTabCacheMax {
			old := chooserTabCache.order[0]
			chooserTabCache.order = chooserTabCache.order[1:]
			delete(chooserTabCache.entries, old)
		}
	}
	chooserTabCache.Unlock()
	snap := e.snap
	h.once.Do(func() { h.tab = buildSigTable(snap) })
	e.chooserTab, e.chooserEpoch = h.tab, epoch
	return h.tab
}

func buildSigTable(snap store.Snapshot) *sigTable {
	ids := snap.LiveIDs()
	maxID := -1
	for _, id := range ids {
		if id > maxID {
			maxID = id
		}
	}
	tab := &sigTable{
		sigs:  make([]sigEntry, maxID+1),
		light: grafil.BuildLight(ids, snap.Graph),
	}
	for _, id := range ids {
		if g := snap.Graph(id); g != nil {
			tab.sigs[id] = graphSig(g)
		}
	}
	return tab
}

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

// chooseArm applies the cost model: given the fragment and the candidate
// count, pick the cheapest arm expected to win. The ordering reflects where
// each filter's power actually comes from on index-probed candidates: a
// candidate list produced by FSG-list intersection already guarantees every
// single indexed feature is *present*, so presence masks alone rarely prune
// further — count multiplicity (Grafil) and size/degree bounds (signature)
// are what the probe cannot express.
func (e *Engine) chooseArm(frag *graph.Graph, ncand int) (FilterArm, string) {
	switch e.chooserMode {
	case FilterProbe:
		return ArmProbe, "forced"
	case FilterGrafil:
		return ArmGrafil, "forced"
	case FilterSignature:
		return ArmSignature, "forced"
	}
	if ncand < minPrefilterCands {
		return ArmProbe, fmt.Sprintf("cands=%d<min=%d", ncand, minPrefilterCands)
	}
	tab := e.ensureChooserTab()
	p := tab.light.Profile(frag)
	if p.Unknown {
		// An out-of-vocabulary label or triple: no indexed graph can contain
		// the fragment, and the count check rejects every candidate in O(1).
		return ArmGrafil, "oov-feature"
	}
	if p.RepeatedFeatures() {
		// Repeated labels/triples: count requirements prune where presence
		// (which the index probe already established) cannot.
		return ArmGrafil, "repeated-features"
	}
	if sel := tab.light.MinLabelSelectivity(frag); sel <= 0.5 {
		// A rare label with no multiplicity: the presence mask plus the
		// size/degree bounds are the cheapest per-candidate check.
		return ArmSignature, fmt.Sprintf("rare-label(sel=%.2f)", sel)
	}
	// Common labels, no multiplicity: neither filter separates candidates
	// the probe has not already separated; skip per-candidate overhead.
	return ArmProbe, "low-power"
}

// prefilter screens cands for fragment frag with the chosen arm, returning a
// sound candidate superset of the verified answer. The returned slice is
// either cands itself (probe arm) or freshly allocated — cached and memoized
// inputs are never mutated.
func (e *Engine) prefilter(ctx context.Context, frag *graph.Graph, cands []int) []int {
	arm, reason := e.chooseArm(frag, len(cands))
	d := FilterDecision{Arm: arm, Candidates: len(cands), Kept: len(cands),
		FragEdges: frag.NumEdges(), Reason: reason}
	if arm == ArmProbe {
		e.finishChoice(ctx, d)
		return cands
	}
	tab := e.ensureChooserTab()
	kept := make([]int, 0, len(cands))
	switch arm {
	case ArmSignature:
		qs := graphSig(frag)
		for _, id := range cands {
			if id >= 0 && id < len(tab.sigs) && qs.passes(tab.sigs[id]) {
				kept = append(kept, id)
			}
		}
	case ArmGrafil:
		p := tab.light.Profile(frag)
		for _, id := range cands {
			if tab.light.Pass(&p, id) {
				kept = append(kept, id)
			}
		}
	}
	d.Kept = len(kept)
	e.finishChoice(ctx, d)
	return kept
}

func (e *Engine) finishChoice(ctx context.Context, d FilterDecision) {
	e.lastChoice = d
	if sp := trace.SpanFromContext(ctx); sp != nil {
		sp.Record(trace.KindFilterChoose, 0, d.Arm.String(), int64(d.Kept))
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
	tab   *sigTable
	sigs  []sigEntry            // signature arm: per-fragment signatures
	profs []grafil.LightProfile // grafil arm: per-fragment count requirements
}

// pass reports whether candidate id survives the gate for fragment j.
func (lg *levelGate) pass(j, id int) bool {
	if lg == nil {
		return true
	}
	if lg.arm == ArmGrafil {
		return lg.tab.light.Pass(&lg.profs[j], id)
	}
	return id >= 0 && id < len(lg.tab.sigs) && lg.sigs[j].passes(lg.tab.sigs[id])
}

// passAny reports whether candidate id survives the gate for any of the n
// fragments — the level's verification is containsAnyFragment, so a graph
// failing every fragment gate cannot be confirmed at this level.
func (lg *levelGate) passAny(n, id int) bool {
	for j := 0; j < n; j++ {
		if lg.pass(j, id) {
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
	tab := e.ensureChooserTab()
	lg := &levelGate{tab: tab}
	var reason string
	switch e.chooserMode {
	case FilterGrafil:
		lg.arm, reason = ArmGrafil, "forced"
	case FilterSignature:
		lg.arm, reason = ArmSignature, "forced"
	default:
		// One pass over the level's fragments decides the arm for all of
		// them: multiplicity or an out-of-vocabulary feature anywhere makes
		// count filtering the strongest gate; otherwise the signature's
		// bounds are the cheapest check that still adds to the probe.
		lg.arm, reason = ArmSignature, "bounds"
		for _, f := range frags {
			p := tab.light.Profile(f)
			if p.Unknown || p.RepeatedFeatures() {
				lg.arm, reason = ArmGrafil, "repeated-features"
				break
			}
		}
	}
	if lg.arm == ArmGrafil {
		lg.profs = make([]grafil.LightProfile, len(frags))
		for i, f := range frags {
			lg.profs[i] = tab.light.Profile(f)
		}
	} else {
		lg.sigs = make([]sigEntry, len(frags))
		for i, f := range frags {
			lg.sigs[i] = graphSig(f)
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
	})
	return lg
}
