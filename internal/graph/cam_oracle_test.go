package graph

import (
	"strconv"
	"strings"
)

// The paper identifies fragments by the CAM code of Huan & Wang (ICDM'03
// [5]): the maximal code, over all vertex orderings, obtained by reading the
// lower triangle of the adjacency matrix row by row with vertex labels on
// the diagonal. The production canonical form in this package is the
// minimum DFS code (canonical.go) because it falls out of the gSpan miner;
// CAMCode is the literal construction, kept with the tests as an
// independent cross-validation oracle: two complete canonical forms must
// induce the same equivalence classes.
//
// The search is branch-and-bound over vertex orderings: positions are
// filled greedily with the maximal next matrix row (label first, then
// adjacency bits), keeping every ordering prefix that attains it. Orderings
// are restricted to connected expansions — an isomorphism-invariant rule,
// so canonicality is preserved — which keeps the search small. Fragments
// are tiny (the paper caps visual queries at ~10 edges).

// CAMCode returns the canonical adjacency matrix code of g. Two graphs have
// equal CAM codes iff they are isomorphic. g must be connected.
func CAMCode(g *Graph) string {
	n := g.NumNodes()
	if n == 0 {
		return ""
	}
	type prefix struct {
		order []int
		used  []bool
	}
	front := []prefix{{used: make([]bool, n)}}

	var rows []string
	for pos := 0; pos < n; pos++ {
		bestRow := ""
		var next []prefix
		for _, p := range front {
			for v := 0; v < n; v++ {
				if p.used[v] {
					continue
				}
				label, bits, touches := camRow(g, v, p.order)
				if pos > 0 && !touches {
					continue // connected expansion only
				}
				row := strconv.Itoa(len(label)) + ":" + label + ":" + bits
				switch {
				case row > bestRow:
					bestRow = row
					next = next[:0]
					fallthrough
				case row == bestRow:
					np := prefix{
						order: append(append([]int(nil), p.order...), v),
						used:  append([]bool(nil), p.used...),
					}
					np.used[v] = true
					next = append(next, np)
				}
			}
		}
		front = next
		rows = append(rows, bestRow)
	}
	return strings.Join(rows, "|")
}

// camRow renders the matrix row of v against the placed prefix and reports
// whether v touches it. Matrix cells carry the edge label so that the code
// stays complete for edge-labeled graphs.
func camRow(g *Graph, v int, placed []int) (label, bits string, touches bool) {
	var b strings.Builder
	for i, u := range placed {
		if i > 0 {
			b.WriteByte(',')
		}
		if g.HasEdge(u, v) {
			b.WriteByte('1')
			b.WriteString(g.EdgeLabel(u, v))
			touches = true
		} else {
			b.WriteByte('0')
		}
	}
	return g.Label(v), b.String(), touches
}
