package spig

import (
	"context"
	"fmt"
	"testing"

	"prague/internal/index"
	"prague/internal/query"
	"prague/internal/trace"
)

// noIndex classifies every fragment as non-indexed, so every vertex takes
// the full inheritance path of classify — the most work per step.
type noIndex struct{}

func (noIndex) Lookup(string) (index.Kind, int) { return index.KindNone, -1 }

// hexLadder returns a linear chain of rings fused hexagons, all nodes C, in
// drawing order: the first ring, then each next ring as a 4-node path
// closing on the edge opposite the previous fusion.
func hexLadder(rings int) (labels []string, edges []edgeSpec) {
	labels = make([]string, 6+4*(rings-1))
	for i := range labels {
		labels[i] = "C"
	}
	for i := 0; i < 6; i++ {
		edges = append(edges, edgeSpec{i, (i + 1) % 6})
	}
	u, v := 2, 3 // the fused edge of the next ring
	for r, next := 1, 6; r < rings; r, next = r+1, next+4 {
		n := [4]int{next, next + 1, next + 2, next + 3}
		edges = append(edges, edgeSpec{u, n[0]}, edgeSpec{n[0], n[1]}, edgeSpec{n[1], n[2]}, edgeSpec{n[2], n[3]}, edgeSpec{n[3], v})
		u, v = n[1], n[2]
	}
	return labels, edges
}

// complete returns K_n, all nodes C, drawn node by node so the query stays
// connected.
func complete(n int) (labels []string, edges []edgeSpec) {
	labels = make([]string, n)
	for i := range labels {
		labels[i] = "C"
	}
	for v := 1; v < n; v++ {
		for u := 0; u < v; u++ {
			edges = append(edges, edgeSpec{u, v})
		}
	}
	return labels, edges
}

// stepCounts is what one formulation step records on its spig_build span.
type stepCounts struct {
	realizations, fragments, codes, vertices int64
	newClasses                               int64 // codes of the step's SPIG no earlier SPIG has
}

// formulateCounted draws the edges one at a time and returns each step's
// counts, read from the span the construction records them on.
func formulateCounted(t testing.TB, labels []string, edges []edgeSpec) (*query.Query, []stepCounts) {
	t.Helper()
	q := query.New()
	for _, l := range labels {
		q.AddNode(l)
	}
	S := NewSet(noIndex{})
	tracer := trace.New(trace.Options{Enabled: true})
	var out []stepCounts
	seen := map[string]bool{}
	for _, e := range edges {
		step, err := q.AddEdge(e.a, e.b)
		if err != nil {
			t.Fatal(err)
		}
		ctx, root := tracer.StartRoot(context.Background(), trace.KindSpigBuild)
		s, err := S.ConstructCtx(ctx, q, step)
		if err != nil {
			t.Fatal(err)
		}
		root.End()
		d := root.Data()
		c := stepCounts{realizations: d.Counts["realizations"], fragments: d.Counts["fragments"], vertices: int64(s.NumVertices())}
		for k := 1; k <= s.MaxLevel(); k++ {
			for _, v := range s.Level(k) {
				if !seen[v.Code] {
					seen[v.Code] = true
					c.newClasses++
				}
			}
		}
		for _, ch := range d.Children {
			if ch.Kind == trace.KindCanonical.String() {
				c.codes = ch.Counts["codes"]
			}
		}
		out = append(out, c)
	}
	return q, out
}

// connectedWith counts, by brute force over every subset of the earlier
// steps, the connected step sets that contain step ell: the realizations
// SPIG construction must enumerate at that step.
func connectedWith(q *query.Query, ell int) int64 {
	var earlier []int
	for _, s := range q.Steps() {
		if s < ell {
			earlier = append(earlier, s)
		}
	}
	var n int64
	steps := make([]int, 0, len(earlier)+1)
	for mask := 0; mask < 1<<len(earlier); mask++ {
		steps = steps[:0]
		for i, s := range earlier {
			if mask&(1<<i) != 0 {
				steps = append(steps, s)
			}
		}
		if q.StepsConnected(append(steps, ell)) {
			n++
		}
	}
	return n
}

// TestSpigCountsPerStep pins, per formulation step and without timing, what
// SPIG construction enumerates and builds on all-C shapes whose
// realizations outnumber their classes: 3- and 4-ring fused hexagon ladders,
// K5 and K6. Every realization of a new step is new, so each is materialized
// once; a canonical code is computed only for a class the session has not
// met before (the step's SPIG codes no earlier SPIG has), every other
// realization being settled by VF2 against its invariant bucket. ladder4 and
// K6 pin their last step only, and skip the brute-force realization count.
func TestSpigCountsPerStep(t *testing.T) {
	ladder3Labels, ladder3Edges := hexLadder(3)
	ladder4Labels, ladder4Edges := hexLadder(4)
	k5Labels, k5Edges := complete(5)
	k6Labels, k6Edges := complete(6)
	for _, tc := range []struct {
		name         string
		labels       []string
		edges        []edgeSpec
		realizations []int64 // per step, or the last step's
		vertices     []int64 // SPIG classes per step
		codes        []int64 // classes new to the session per step
	}{
		{
			name: "ladder3", labels: ladder3Labels, edges: ladder3Edges,
			realizations: []int64{1, 2, 3, 4, 5, 16, 22, 23, 24, 25, 222, 216, 217, 218, 219, 2230},
			vertices:     []int64{1, 2, 3, 4, 5, 6, 13, 14, 15, 16, 47, 103, 108, 111, 113, 340},
			codes:        []int64{1, 1, 1, 1, 1, 1, 8, 5, 5, 5, 18, 70, 56, 54, 46, 67},
		},
		{
			name: "K5", labels: k5Labels, edges: k5Edges,
			realizations: []int64{1, 2, 4, 7, 15, 31, 54, 116, 242, 496},
			vertices:     []int64{1, 2, 3, 5, 8, 9, 15, 26, 29, 30},
			codes:        []int64{1, 1, 1, 3, 2, 1, 10, 8, 2, 1},
		},
		{
			name: "ladder4", labels: ladder4Labels, edges: ladder4Edges,
			realizations: []int64{21730}, vertices: []int64{2759}, codes: []int64{470},
		},
		{
			name: "K6", labels: k6Labels, edges: k6Edges,
			realizations: []int64{16093}, vertices: []int64{142}, codes: []int64{1},
		},
	} {
		t.Run(tc.name, func(t *testing.T) {
			q, got := formulateCounted(t, tc.labels, tc.edges)
			lastOnly := len(tc.realizations) == 1
			for i, c := range got {
				step := i + 1
				if c.fragments != c.realizations || c.codes != c.newClasses {
					t.Errorf("step %d: %d fragments materialized for %d new realizations, %d codes computed for %d classes new to the session",
						step, c.fragments, c.realizations, c.codes, c.newClasses)
				}
				j := i
				if lastOnly {
					if step < len(got) {
						continue
					}
					j = 0
				} else if want := connectedWith(q, step); c.realizations != want {
					t.Errorf("step %d: %d realizations enumerated, %d connected step sets contain it", step, c.realizations, want)
				}
				if c.realizations != tc.realizations[j] || c.vertices != tc.vertices[j] || c.codes != tc.codes[j] {
					t.Errorf("step %d: %d realizations in %d classes with %d codes, pinned %d in %d with %d",
						step, c.realizations, c.vertices, c.codes, tc.realizations[j], tc.vertices[j], tc.codes[j])
				}
			}
		})
	}
}

// TestSpigCodesPerSession pins the verify-comb workload's formulation
// shapes: over a whole session, canonical codes computed equal the distinct
// classes met — 11 for the 11-edge carbon path cpath11, 76 for comb-o6 (a
// 6-carbon path with one O leaf per carbon, spine drawn first) — however
// many realizations (66 and 234) each class has.
func TestSpigCodesPerSession(t *testing.T) {
	comb := func(n int) (labels []string, edges []edgeSpec) {
		for i := 0; i < n; i++ {
			labels = append(labels, "C")
		}
		for i := 0; i < n; i++ {
			labels = append(labels, "O")
		}
		for i := 1; i < n; i++ {
			edges = append(edges, edgeSpec{i - 1, i})
		}
		for i := 0; i < n; i++ {
			edges = append(edges, edgeSpec{i, n + i})
		}
		return labels, edges
	}
	path := func(n int) (labels []string, edges []edgeSpec) {
		labels = append(labels, "C")
		for i := 1; i <= n; i++ {
			labels = append(labels, "C")
			edges = append(edges, edgeSpec{i - 1, i})
		}
		return labels, edges
	}
	pathLabels, pathEdges := path(11)
	combLabels, combEdges := comb(6)
	for _, tc := range []struct {
		name         string
		labels       []string
		edges        []edgeSpec
		classes      int64
		realizations int64
	}{
		{"cpath11", pathLabels, pathEdges, 11, 66},
		{"comb-o6", combLabels, combEdges, 76, 234},
	} {
		t.Run(tc.name, func(t *testing.T) {
			q, got := formulateCounted(t, tc.labels, tc.edges)
			var codes, classes, realizations int64
			for i, c := range got {
				if want := connectedWith(q, i+1); c.realizations != want {
					t.Errorf("step %d: %d realizations enumerated, %d connected step sets contain it", i+1, c.realizations, want)
				}
				codes += c.codes
				classes += c.newClasses
				realizations += c.realizations
			}
			if codes != tc.classes || classes != tc.classes || realizations != tc.realizations {
				t.Errorf("%d codes for %d classes over %d realizations, want %d codes for %d classes over %d",
					codes, classes, realizations, tc.classes, tc.classes, tc.realizations)
			}
		})
	}
}

// BenchmarkSpigFusedRings times whole formulations of the shapes that make
// SPIG construction expensive: fused all-C hexagon ladders and complete
// graphs, whose realizations grow exponentially with their cycles. It is a
// developer microbenchmark (go test -bench SpigFusedRings ./internal/spig);
// the larger shapes take seconds per formulation.
func BenchmarkSpigFusedRings(b *testing.B) {
	type shape struct {
		name   string
		labels []string
		edges  []edgeSpec
	}
	var shapes []shape
	for _, rings := range []int{2, 3, 4} {
		l, e := hexLadder(rings)
		shapes = append(shapes, shape{fmt.Sprintf("ladder%d", rings), l, e})
	}
	for _, n := range []int{5, 6} {
		l, e := complete(n)
		shapes = append(shapes, shape{fmt.Sprintf("K%d", n), l, e})
	}
	for _, sh := range shapes {
		b.Run(sh.name, func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				q := query.New()
				for _, l := range sh.labels {
					q.AddNode(l)
				}
				S := NewSet(noIndex{})
				for _, e := range sh.edges {
					step, err := q.AddEdge(e.a, e.b)
					if err != nil {
						b.Fatal(err)
					}
					if _, err := S.Construct(q, step); err != nil {
						b.Fatal(err)
					}
				}
			}
		})
	}
}
