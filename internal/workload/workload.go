// Package workload constructs the benchmark queries of the paper's §VIII.
//
// The paper's Q1–Q8 were hand-picked against the real AIDS and GraphGen
// datasets so that (a) the exact candidate set Rq becomes empty at a known
// formulation step, making them substructure *similarity* queries, and (b)
// they exhibit the "best case" (all candidates verification-free, like Q1)
// or "worst case" (all candidates need verification, like Q2–Q8) split of
// PRAGUE's candidate sets. Since our datasets are synthetic equivalents,
// this package searches for queries with the same properties instead of
// hard-coding graph shapes; the search is seeded and deterministic.
package workload

import (
	"fmt"
	"math/rand"
	"sort"

	"prague/internal/core"
	"prague/internal/graph"
	"prague/internal/index"
)

// Query is one benchmark query with its default formulation sequence.
type Query struct {
	Name       string
	NodeLabels []string
	Edges      [][2]int // node index pairs, in default drawing order
	// Class records the candidate-set regime the query was selected for:
	// "best" (all verification-free), "worst" (all need verification), or
	// "containment".
	Class string
	// EmptyAtStep is the 1-based formulation step at which Rq first became
	// empty during selection (0 for containment queries).
	EmptyAtStep int
}

// Size returns the query's edge count.
func (q Query) Size() int { return len(q.Edges) }

// Graph materializes the query as a graph.Graph.
func (q Query) Graph() *graph.Graph {
	g := graph.New(-1)
	for _, l := range q.NodeLabels {
		g.AddNode(l)
	}
	for _, e := range q.Edges {
		g.MustAddEdge(e[0], e[1])
	}
	return g
}

// Permuted returns a copy whose formulation sequence is a different
// connected-prefix order, derived deterministically from seed (used by the
// paper's Table III to study sequence effects).
func (q Query) Permuted(seed int64) Query {
	r := rand.New(rand.NewSource(seed))
	out := q
	out.Name = fmt.Sprintf("%s-seq%d", q.Name, seed)
	n := len(q.Edges)
	for attempt := 0; attempt < 50; attempt++ {
		perm := r.Perm(n)
		edges := make([][2]int, 0, n)
		inFrag := map[int]bool{}
		used := make([]bool, n)
		progress := true
		for len(edges) < n && progress {
			progress = false
			for _, i := range perm {
				if used[i] {
					continue
				}
				e := q.Edges[i]
				if len(edges) == 0 || inFrag[e[0]] || inFrag[e[1]] {
					edges = append(edges, e)
					used[i] = true
					inFrag[e[0]], inFrag[e[1]] = true, true
					progress = true
					break
				}
			}
		}
		if len(edges) == n && !sameOrder(edges, q.Edges) {
			out.Edges = edges
			return out
		}
	}
	return out // no distinct valid order found; return the default
}

func sameOrder(a, b [][2]int) bool {
	for i := range a {
		if a[i] != b[i] {
			return false
		}
	}
	return true
}

// Options configures query selection.
type Options struct {
	Seed     int64
	Sigma    int // σ used to classify best/worst (default 3)
	MinEdges int // query size range (default 6..8)
	MaxEdges int
	// RareLabels are labels used to mutate sampled subgraphs so the exact
	// candidate set empties (e.g. "Hg" for molecules, "L19" for synthetic).
	RareLabels []string
	// Attempts bounds the search (default 300).
	Attempts int
}

func (o *Options) defaults() {
	if o.Sigma == 0 {
		o.Sigma = 3
	}
	if o.MinEdges == 0 {
		o.MinEdges = 6
	}
	if o.MaxEdges == 0 {
		o.MaxEdges = 8
	}
	if o.Attempts == 0 {
		o.Attempts = 300
	}
	if len(o.RareLabels) == 0 {
		o.RareLabels = []string{"Hg", "Se", "I"}
	}
}

// FindSimilarityQueries searches for nBest best-case and nWorst worst-case
// similarity queries against the database and indexes. When a pure class
// cannot be found within the attempt budget, the closest candidates (by
// verification-free fraction) are returned, so callers always get the
// requested counts if any similarity query was found at all.
func FindSimilarityQueries(db []*graph.Graph, idx *index.Set, nBest, nWorst int, opt Options) ([]Query, []Query, error) {
	opt.defaults()
	r := rand.New(rand.NewSource(opt.Seed))

	type scored struct {
		q        Query
		freeFrac float64
	}
	var pool []scored
	seen := map[string]bool{}

	for attempt := 0; attempt < opt.Attempts && len(pool) < (nBest+nWorst)*6; attempt++ {
		qg := sampleMutatedQuery(r, db, opt)
		if qg == nil {
			continue
		}
		code := graph.CanonicalCode(qg)
		if seen[code] {
			continue
		}
		seen[code] = true

		spec := specFromGraph(qg)
		emptyAt, free, ver, ok := evaluate(db, idx, spec, opt.Sigma)
		if !ok || emptyAt == 0 {
			continue // never went empty: not a similarity query
		}
		if free+ver == 0 {
			continue // no candidates at all: degenerate
		}
		spec.EmptyAtStep = emptyAt
		pool = append(pool, scored{q: spec, freeFrac: float64(free) / float64(free+ver)})
	}
	if len(pool) == 0 {
		return nil, nil, fmt.Errorf("workload: no similarity query found in %d attempts", opt.Attempts)
	}
	sort.SliceStable(pool, func(i, j int) bool { return pool[i].freeFrac > pool[j].freeFrac })

	var best, worst []Query
	for i := 0; i < nBest && i < len(pool); i++ {
		q := pool[i].q
		q.Class = "best"
		q.Name = fmt.Sprintf("best%d", i+1)
		best = append(best, q)
	}
	for i := 0; i < nWorst && i < len(pool)-nBest; i++ {
		q := pool[len(pool)-1-i].q
		q.Class = "worst"
		q.Name = fmt.Sprintf("worst%d", i+1)
		worst = append(worst, q)
	}
	return best, worst, nil
}

// ContainmentQueries samples n queries that are exact subgraphs of some data
// graph (so Rq never empties), for the Figure 9(a) comparison against
// GBLENDER.
func ContainmentQueries(db []*graph.Graph, n int, sizes []int, seed int64) ([]Query, error) {
	if len(sizes) == 0 {
		sizes = []int{3, 4, 5, 6, 7, 8}
	}
	r := rand.New(rand.NewSource(seed))
	var out []Query
	for i := 0; i < n; i++ {
		size := sizes[i%len(sizes)]
		var qg *graph.Graph
		for attempt := 0; attempt < 200; attempt++ {
			g := db[r.Intn(len(db))]
			if g.Size() < size {
				continue
			}
			qg = randomConnectedSubgraph(r, g, size)
			if qg != nil {
				break
			}
		}
		if qg == nil {
			return nil, fmt.Errorf("workload: cannot sample a %d-edge subgraph", size)
		}
		spec := specFromGraph(qg)
		spec.Class = "containment"
		spec.Name = fmt.Sprintf("cq%d", i+1)
		out = append(out, spec)
	}
	return out, nil
}

// sampleMutatedQuery samples a connected subgraph of a random data graph and
// relabels one node to a rare label, so the query exists "almost" but not
// exactly — the regime the paper's similarity queries live in.
func sampleMutatedQuery(r *rand.Rand, db []*graph.Graph, opt Options) *graph.Graph {
	size := opt.MinEdges + r.Intn(opt.MaxEdges-opt.MinEdges+1)
	g := db[r.Intn(len(db))]
	if g.Size() < size {
		return nil
	}
	qg := randomConnectedSubgraph(r, g, size)
	if qg == nil {
		return nil
	}
	// Relabel a random node to a rare label.
	node := r.Intn(qg.NumNodes())
	rare := opt.RareLabels[r.Intn(len(opt.RareLabels))]
	if qg.Label(node) == rare {
		return nil
	}
	mut := graph.New(-1)
	for i := 0; i < qg.NumNodes(); i++ {
		if i == node {
			mut.AddNode(rare)
		} else {
			mut.AddNode(qg.Label(i))
		}
	}
	for _, e := range qg.Edges() {
		mut.MustAddEdge(e.U, e.V)
	}
	return mut
}

// randomConnectedSubgraph grows a random connected edge subset of g with
// exactly size edges and returns it as a standalone graph, or nil.
func randomConnectedSubgraph(r *rand.Rand, g *graph.Graph, size int) *graph.Graph {
	edges := g.Edges()
	start := r.Intn(len(edges))
	chosen := map[int]bool{start: true}
	nodes := map[int]bool{edges[start].U: true, edges[start].V: true}
	for len(chosen) < size {
		var frontier []int
		for i, e := range edges {
			if !chosen[i] && (nodes[e.U] || nodes[e.V]) {
				frontier = append(frontier, i)
			}
		}
		if len(frontier) == 0 {
			return nil
		}
		pick := frontier[r.Intn(len(frontier))]
		chosen[pick] = true
		nodes[edges[pick].U] = true
		nodes[edges[pick].V] = true
	}
	var subset []graph.Edge
	for i := range edges {
		if chosen[i] {
			subset = append(subset, edges[i])
		}
	}
	sub, _ := g.EdgeInducedSubgraph(subset)
	return sub
}

// specFromGraph converts a query graph into a Query whose edge order keeps
// every prefix connected (a valid visual formulation sequence).
func specFromGraph(qg *graph.Graph) Query {
	var spec Query
	for i := 0; i < qg.NumNodes(); i++ {
		spec.NodeLabels = append(spec.NodeLabels, qg.Label(i))
	}
	inFrag := map[int]bool{}
	used := make([]bool, qg.NumEdges())
	for len(spec.Edges) < qg.NumEdges() {
		for i, e := range qg.Edges() {
			if used[i] {
				continue
			}
			if len(spec.Edges) == 0 || inFrag[e.U] || inFrag[e.V] {
				used[i] = true
				inFrag[e.U], inFrag[e.V] = true, true
				spec.Edges = append(spec.Edges, [2]int{e.U, e.V})
				break
			}
		}
	}
	return spec
}

// Formulate draws the query on e the way the paper's user does: it places
// the query's nodes, draws its edges in the default order, and takes
// similarity search whenever a step reports that Rq has emptied. It returns
// one outcome per drawn edge.
func (q Query) Formulate(e *core.Engine) ([]core.StepOutcome, error) {
	ids := make([]int, len(q.NodeLabels))
	for i, l := range q.NodeLabels {
		ids[i] = e.AddNode(l)
	}
	outs := make([]core.StepOutcome, 0, len(q.Edges))
	for i, ed := range q.Edges {
		out, err := e.AddEdge(ids[ed[0]], ids[ed[1]])
		if err != nil {
			return outs, fmt.Errorf("workload: drawing edge %d of %s: %w", i+1, q.Name, err)
		}
		if out.NeedsChoice {
			e.ChooseSimilarity()
		}
		outs = append(outs, out)
	}
	return outs, nil
}

// evaluate formulates the query on a throwaway engine and reports the step
// at which Rq emptied (0 if never) and the final |Rfree|, |Rver|.
func evaluate(db []*graph.Graph, idx *index.Set, spec Query, sigma int) (emptyAt, free, ver int, ok bool) {
	e, err := core.New(db, idx, sigma)
	if err != nil {
		return 0, 0, 0, false
	}
	outs, err := spec.Formulate(e)
	if err != nil {
		return 0, 0, 0, false
	}
	for i, out := range outs {
		if out.NeedsChoice {
			emptyAt = i + 1
			break
		}
	}
	free, ver, _ = e.CandidateCounts()
	return emptyAt, free, ver, true
}
