package core

import (
	"context"
	"sort"

	"prague/internal/graph"
	"prague/internal/index"
	"prague/internal/intset"
)

// similarResultsGen implements Algorithm 5 (SimilarResultsGen): produce the
// approximate result set ordered by subgraph distance. Levels are processed
// from |q|-1 (distance 1) downward, so the first level at which a graph is
// confirmed gives its exact distance; verification-free candidates are
// accepted outright, while Rver candidates are verified by checking whether
// the data graph embeds any of the query's level-i fragment classes (the
// SimVerify procedure — VF2 extended to MCCS threshold checking).
//
// Refinement over the paper's presentation: when the engine is already in
// similarity mode, data graphs that contain the whole query exactly are
// reported with distance 0 (Definition 3 includes them), rather than
// distance 1.
func (e *Engine) similarResultsGen(ctx context.Context, qg *graph.Graph) ([]Result, error) {
	n := e.q.Size()
	assigned := map[int]int{} // graph id -> distance

	// Distance-0 pass (only meaningful in similarity mode; in containment
	// mode Run already returned when exact results existed). Routed through
	// the shared cache: exact containment of the full query is the single
	// most expensive verification, and concurrent sessions formulating the
	// same query share one pass.
	var ctxErr error
	if target := e.spigs.Target(e.q); target != nil {
		cands, err := e.exactSubCandidates(ctx, target)
		if err == nil {
			var exact []int
			exact, err = e.exactContainment(ctx, target.Code, qg, cands)
			for _, id := range exact {
				assigned[id] = 0
			}
		}
		ctxErr = err
	}

	lo := n - e.sigma
	if lo < 1 {
		lo = 1
	}
	for i := n - 1; ctxErr == nil && i >= lo; i-- {
		dist := n - i
		for _, id := range e.rfree[i] {
			if _, done := assigned[id]; !done {
				assigned[id] = dist
			}
		}
		// Rver(i) minus everything already confirmed (Algorithm 5 line 3).
		pending := intset.Diff(e.rver[i], keysSorted(assigned))
		var confirmed []int
		var err error
		if e.cache != nil {
			confirmed, err = e.verifyLevelCached(ctx, i, pending)
		} else {
			frags := e.levelFragments(i)
			// Level gate (chooser.go): a pending graph only reaches VF2 for
			// fragments whose features (counts or signature) it can contain.
			gate := e.levelPrefilter(ctx, frags, pending)
			confirmed, err = e.filter(ctx, pending, e.verifyPred(ctx, func(id int) bool {
				return e.containsAnyFragmentGated(frags, gate, id)
			}))
		}
		for _, id := range confirmed {
			assigned[id] = dist
		}
		ctxErr = err
	}

	// σ ≥ |q| admits graphs sharing nothing with the query: by Definition 2
	// their distance is exactly |q| (δ = 0). They form the trailing band of
	// the ranking — the pinned epoch's live graphs, so tombstoned slots never
	// surface and graphs inserted mid-evaluation never leak in.
	if ctxErr == nil && e.sigma >= n {
		for _, id := range e.snap.LiveIDs() {
			if _, done := assigned[id]; !done {
				assigned[id] = n
			}
		}
	}

	results := make([]Result, 0, len(assigned))
	for id, d := range assigned {
		results = append(results, Result{GraphID: id, Distance: d})
	}
	sort.Slice(results, func(a, b int) bool {
		if results[a].Distance != results[b].Distance {
			return results[a].Distance < results[b].Distance
		}
		return results[a].GraphID < results[b].GraphID
	})
	return results, ctxErr
}

// verifyLevelCached confirms pending Rver(i) candidates through the shared
// cache: instead of scanning each pending graph against every level-i
// fragment class, it resolves the verified containment set of each
// non-indexed fragment (cached service-wide under the fragment's canonical
// code) and unions their intersections with pending. Only NIF vertices
// matter: a pending id containing an indexed level-i fragment would appear
// in that fragment's FSG list — i.e. in Rfree(i) — and would have been
// assigned before pending was computed. Unlike the pending-scan's answer,
// per-fragment containment sets are reusable across levels, sessions, and
// queries, which is what makes them worth caching.
func (e *Engine) verifyLevelCached(ctx context.Context, i int, pending []int) ([]int, error) {
	if len(pending) == 0 {
		return nil, nil
	}
	var confirmed []int
	for _, v := range e.spigs.LevelVertices(i) {
		if v.Kind == index.KindFrequent || v.Kind == index.KindDIF {
			continue
		}
		cands, err := e.exactSubCandidates(ctx, v)
		if err != nil {
			return confirmed, err
		}
		ids, err := e.exactContainment(ctx, v.Code, v.Frag, cands)
		confirmed = intset.Union(confirmed, intset.Intersect(pending, ids))
		if err != nil {
			return confirmed, err
		}
	}
	return confirmed, nil
}

// levelFragments collects the fragment classes at SPIG level i — exactly the
// connected i-edge subgraphs of the current query.
func (e *Engine) levelFragments(i int) []*graph.Graph {
	var frags []*graph.Graph
	for _, v := range e.spigs.LevelVertices(i) {
		frags = append(frags, v.Frag)
	}
	return frags
}

// containsAnyFragmentGated is containsAnyFragment with the per-fragment
// level gate from levelPrefilter: when gate is non-nil, fragment j is only
// VF2-checked against graphs whose features can contain it. The gate is
// read-only once built, so concurrent verify workers share it.
func (e *Engine) containsAnyFragmentGated(frags []*graph.Graph, gate *levelGate, id int) bool {
	g := e.snap.Graph(id)
	if gate == nil {
		return containsAnyFragment(frags, g)
	}
	r := gate.tab.Row(id)
	for j, f := range frags {
		if gate.pass(j, r) && graph.SubgraphIsomorphic(f, g) {
			return true
		}
	}
	return false
}

func containsAnyFragment(frags []*graph.Graph, g *graph.Graph) bool {
	for _, f := range frags {
		if graph.SubgraphIsomorphic(f, g) {
			return true
		}
	}
	return false
}

func keysSorted(m map[int]int) []int {
	out := make([]int, 0, len(m))
	for k := range m {
		out = append(out, k)
	}
	sort.Ints(out)
	return out
}
