package core

import (
	"context"

	"prague/internal/graph"
	"prague/internal/index"
	"prague/internal/intset"
	"prague/internal/simverify"
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
	numIDs := e.snap.NumGraphs()

	// Distance-0 pass (only meaningful in similarity mode; in containment
	// mode Run already returned when exact results existed). Routed through
	// the shared cache: exact containment of the full query is the single
	// most expensive verification, and concurrent sessions formulating the
	// same query share one pass.
	var exact []int
	if target := e.spigs.Target(e.q); target != nil {
		cands, err := e.exactSubCandidates(ctx, target)
		if err == nil {
			exact, err = e.exactContainment(ctx, target.Code, qg, cands)
		}
		if err != nil {
			res, _ := e.rank.rank(numIDs, n, exact, nil, nil, nil)
			return res, err
		}
	}

	// σ ≥ |q| admits graphs sharing nothing with the query: by Definition 2
	// their distance is exactly |q| (δ = 0). They form the trailing band of
	// the ranking — the pinned epoch's live graphs, so tombstoned slots never
	// surface and graphs inserted mid-evaluation never leak in.
	var tail []int
	if e.sigma >= n {
		tail = e.snap.LiveIDs()
	}
	return e.rank.rank(numIDs, n, exact, e.sim, tail, func(d int, pending []int) ([]int, error) {
		return e.verifyLevel(ctx, n-d, pending)
	})
}

// verifyLevel returns the pending graphs that contain one of the query's
// level-i fragment classes (Algorithm 5's SimVerify), through the shared
// cache when one is injected.
func (e *Engine) verifyLevel(ctx context.Context, i int, pending []int) ([]int, error) {
	if e.cache != nil {
		return e.verifyLevelCached(ctx, i, pending)
	}
	frags := e.levelFragments(i)
	// Level gate (chooser.go): a pending graph only reaches VF2 for
	// fragments whose feature counts it can contain.
	pending, gate := e.countFilter(ctx, frags, pending)
	return e.filter(ctx, pending, e.verifyPred(ctx, func(id int) bool {
		return e.containsAnyGated(frags, gate, id)
	}))
}

// ranking is Algorithm 5's bookkeeping on bitsets over the pinned snapshot's
// id space: done holds every id placed so far and bands[d] the ids placed at
// distance d. Distances are placed in ascending order and an id is placed
// once, so reading the bands in order yields the answer in (distance, id)
// order without a map or a sort. The buffers are reused across Runs.
type ranking struct {
	last  int // the largest id of the id space
	done  intset.Bits
	bands []intset.Bits
	next  intset.Bits // the candidates of one placement not placed yet
	ids   []int       // one band's ids while the answer is emitted
}

// rank places exact at distance 0, then for each level d = 1…len(levels)
// (SPIG level n-d) the level's unplaced Rfree ids and the ids verify confirms
// among its unplaced Rver ids at distance d, then every unplaced tail id at
// distance n. verify sees each level's pending ids as a fresh ascending list
// and must return a subset of it; a nil verify skips Rver. The first verify
// error ends the ranking, and what was placed so far is returned with it.
func (r *ranking) rank(numIDs, n int, exact []int, levels []simLevel, tail []int,
	verify func(d int, pending []int) ([]int, error)) ([]Result, error) {
	r.reset(numIDs, n)
	r.placeSorted(0, exact)
	var err error
	for d := 1; err == nil && d <= len(levels); d++ {
		l := &levels[d-1]
		r.place(d, r.unplaced(&l.free))
		if verify == nil {
			continue
		}
		// Rver(i) minus everything already placed (Algorithm 5 line 3).
		var confirmed []int
		confirmed, err = verify(d, r.unplaced(&l.ver).AppendTo(nil))
		r.placeSorted(d, confirmed)
	}
	if err == nil && tail != nil {
		r.next.SetRange(0, r.last)
		r.next.OrSorted(tail)
		r.next.AndNot(&r.done)
		r.place(n, &r.next)
	}
	out := make([]Result, 0, r.done.Len())
	for d := range r.bands {
		r.ids = r.bands[d].AppendTo(r.ids[:0])
		for _, id := range r.ids {
			out = append(out, Result{GraphID: id, Distance: d})
		}
	}
	return out, err
}

// reset clears done and the bands 0…n, each spanning [0, numIDs).
func (r *ranking) reset(numIDs, n int) {
	r.last = numIDs - 1
	r.bands = r.bands[:min(n+1, cap(r.bands))]
	for len(r.bands) <= n {
		r.bands = append(r.bands, intset.Bits{})
	}
	r.done.SetRange(0, r.last)
	for d := range r.bands {
		r.bands[d].SetRange(0, r.last)
	}
}

// unplaced loads r.next with set's ids that are not placed yet.
func (r *ranking) unplaced(set *intset.Bits) *intset.Bits {
	r.next.SetRange(0, r.last)
	r.next.Or(set)
	r.next.AndNot(&r.done)
	return &r.next
}

func (r *ranking) place(d int, ids *intset.Bits) {
	r.bands[d].Or(ids)
	r.done.Or(ids)
}

func (r *ranking) placeSorted(d int, ids []int) {
	r.bands[d].OrSorted(ids)
	r.done.OrSorted(ids)
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

// containsAnyGated is simverify.ContainsAny with the per-fragment gate from
// countFilter: when gate is non-nil, fragment j is only VF2-checked against
// graphs whose feature counts can contain it. The gate is read-only once
// built, so concurrent verify workers share it.
func (e *Engine) containsAnyGated(frags []*graph.Graph, gate *countGate, id int) bool {
	g := e.snap.Graph(id)
	if gate == nil {
		return simverify.ContainsAny(frags, g)
	}
	r := gate.tab.Row(id)
	for j, f := range frags {
		if gate.profs[j].Admits(r) && graph.SubgraphIsomorphic(f, g) {
			return true
		}
	}
	return false
}
