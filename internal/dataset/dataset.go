// Package dataset generates the two evaluation datasets of the paper's §VIII
// as seeded, deterministic synthetic equivalents (see DESIGN.md for the
// substitution rationale):
//
//   - an AIDS-Antiviral-like molecule collection — many small node-labeled
//     graphs, average ≈ 25 vertices / 27 edges with a heavy size tail, a
//     carbon-dominated label distribution, tree-like skeletons plus a few
//     ring closures and a degree cap of 4;
//
//   - a GraphGen-like collection (the FG-Index generator) — average 30 edges
//     per graph at density 0.1 over a configurable label vocabulary.
package dataset

import (
	"fmt"
	"math"
	"math/rand"

	"prague/internal/graph"
)

// Element frequencies loosely follow organic chemistry datasets: carbon
// dominates, a few heteroatoms, and a tail of rare elements (the paper's Q3
// uses Hg, so mercury exists in the vocabulary).
var atomDist = []struct {
	label  string
	weight float64
}{
	{"C", 0.720},
	{"O", 0.100},
	{"N", 0.090},
	{"S", 0.025},
	{"Cl", 0.020},
	{"P", 0.012},
	{"F", 0.012},
	{"Br", 0.008},
	{"I", 0.006},
	{"Hg", 0.004},
	{"Se", 0.003},
}

// MoleculeOptions configures the AIDS-like generator.
type MoleculeOptions struct {
	NumGraphs int
	Seed      int64
	// MeanNodes is the average node count (default 25, like AIDS).
	MeanNodes int
	// MaxNodes caps the heavy tail (default 222, the AIDS maximum).
	MaxNodes int
	// BondLabels, when true, labels edges with bond orders ("1", "2",
	// occasionally "3"), exercising the engine's edge-label support. The
	// default (false) matches the paper's node-labeled presentation.
	BondLabels bool
}

// Molecules generates an AIDS-like database of molecule graphs.
func Molecules(opt MoleculeOptions) ([]*graph.Graph, error) {
	if opt.NumGraphs <= 0 {
		return nil, fmt.Errorf("dataset: NumGraphs must be positive")
	}
	mean := opt.MeanNodes
	if mean == 0 {
		mean = 25
	}
	maxNodes := opt.MaxNodes
	if maxNodes == 0 {
		maxNodes = 222
	}
	if mean < 2 || maxNodes < mean {
		return nil, fmt.Errorf("dataset: invalid size parameters mean=%d max=%d", mean, maxNodes)
	}
	r := rand.New(rand.NewSource(opt.Seed))
	db := make([]*graph.Graph, 0, opt.NumGraphs)
	for i := 0; i < opt.NumGraphs; i++ {
		db = append(db, randomMolecule(r, i, mean, maxNodes, opt.BondLabels))
	}
	return db, nil
}

// randomMolecule builds one molecule: lognormal-ish size, random tree with a
// degree cap, then a few ring-closing edges. With bonds, edges carry bond
// orders (mostly single, some double, rare triple).
func randomMolecule(r *rand.Rand, id, mean, maxNodes int, bonds bool) *graph.Graph {
	addEdge := func(g *graph.Graph, u, v int) {
		label := ""
		if bonds {
			switch x := r.Float64(); {
			case x < 0.80:
				label = "1"
			case x < 0.97:
				label = "2"
			default:
				label = "3"
			}
		}
		if err := g.AddLabeledEdge(u, v, label); err != nil {
			panic(err)
		}
	}
	// Lognormal size centered near mean with a heavy right tail.
	mu := math.Log(float64(mean)) - 0.08
	n := int(math.Exp(r.NormFloat64()*0.4 + mu))
	if n < 2 {
		n = 2
	}
	if n > maxNodes {
		n = maxNodes
	}

	g := graph.New(id)
	for v := 0; v < n; v++ {
		g.AddNode(sampleAtom(r))
	}
	const maxDegree = 4
	// Random tree: attach each new node to a uniformly chosen earlier node
	// with spare valence (chains and branches, like molecule skeletons).
	for v := 1; v < n; v++ {
		for tries := 0; ; tries++ {
			u := r.Intn(v)
			if g.Degree(u) < maxDegree || tries > 4*v {
				addEdge(g, u, v)
				break
			}
		}
	}
	// Ring closures: roughly one ring per ~8 nodes (AIDS averages 25 nodes
	// / 27 edges ⇒ ~3 extra edges).
	rings := n / 8
	if rings < 1 && r.Float64() < 0.5 {
		rings = 1
	}
	for k := 0; k < rings; k++ {
		for tries := 0; tries < 20; tries++ {
			u, v := r.Intn(n), r.Intn(n)
			if u != v && !g.HasEdge(u, v) && g.Degree(u) < maxDegree && g.Degree(v) < maxDegree {
				addEdge(g, u, v)
				break
			}
		}
	}
	return g
}

func sampleAtom(r *rand.Rand) string {
	x := r.Float64()
	for _, a := range atomDist {
		if x < a.weight {
			return a.label
		}
		x -= a.weight
	}
	return "C"
}

// SyntheticOptions configures the GraphGen-like generator.
type SyntheticOptions struct {
	NumGraphs int
	Seed      int64
	// AvgEdges is the average edge count per graph (default 30, matching
	// the paper's synthetic datasets).
	AvgEdges int
	// Density is 2|E| / (|V|·(|V|−1)) (default 0.1).
	Density float64
	// NumLabels is the node label vocabulary size (default 20).
	NumLabels int
}

// Synthetic generates a GraphGen-like database.
func Synthetic(opt SyntheticOptions) ([]*graph.Graph, error) {
	if opt.NumGraphs <= 0 {
		return nil, fmt.Errorf("dataset: NumGraphs must be positive")
	}
	avgEdges := opt.AvgEdges
	if avgEdges == 0 {
		avgEdges = 30
	}
	density := opt.Density
	if density == 0 {
		density = 0.1
	}
	if density < 0 || density > 1 || avgEdges < 1 {
		return nil, fmt.Errorf("dataset: invalid parameters density=%v avgEdges=%d", density, avgEdges)
	}
	numLabels := opt.NumLabels
	if numLabels == 0 {
		numLabels = 20
	}
	labels := make([]string, numLabels)
	for i := range labels {
		labels[i] = fmt.Sprintf("L%d", i)
	}

	r := rand.New(rand.NewSource(opt.Seed))
	db := make([]*graph.Graph, 0, opt.NumGraphs)
	for i := 0; i < opt.NumGraphs; i++ {
		// Jitter edge count ±30% around the average.
		e := int(float64(avgEdges) * (0.7 + 0.6*r.Float64()))
		if e < 1 {
			e = 1
		}
		// Solve 2e / (v(v-1)) = density for v.
		v := int(math.Ceil((1 + math.Sqrt(1+8*float64(e)/density)) / 2))
		if v < 2 {
			v = 2
		}
		if e > v*(v-1)/2 {
			e = v * (v - 1) / 2
		}
		if e < v-1 {
			// Keep the graph connected: at least a spanning tree.
			e = v - 1
		}
		g := graph.New(i)
		for k := 0; k < v; k++ {
			g.AddNode(labels[r.Intn(numLabels)])
		}
		for k := 1; k < v; k++ {
			g.MustAddEdge(k, r.Intn(k))
		}
		for g.NumEdges() < e {
			a, b := r.Intn(v), r.Intn(v)
			if a != b && !g.HasEdge(a, b) {
				g.MustAddEdge(a, b)
			}
		}
		db = append(db, g)
	}
	return db, nil
}

// Stats summarizes a database, mirroring the dataset descriptions in §VIII-A.
type DatasetStats struct {
	NumGraphs          int
	AvgNodes, AvgEdges float64
	MaxNodes, MaxEdges int
	NumLabels          int
	Density            float64
}

// Stats computes summary statistics for a database.
func Stats(db []*graph.Graph) DatasetStats {
	var s DatasetStats
	s.NumGraphs = len(db)
	labels := map[string]bool{}
	var totalDensity float64
	for _, g := range db {
		s.AvgNodes += float64(g.NumNodes())
		s.AvgEdges += float64(g.NumEdges())
		if g.NumNodes() > s.MaxNodes {
			s.MaxNodes = g.NumNodes()
		}
		if g.NumEdges() > s.MaxEdges {
			s.MaxEdges = g.NumEdges()
		}
		for node := range g.NumNodes() {
			l := g.Label(node)
			labels[l] = true
		}
		if n := g.NumNodes(); n > 1 {
			totalDensity += 2 * float64(g.NumEdges()) / (float64(n) * float64(n-1))
		}
	}
	if len(db) > 0 {
		s.AvgNodes /= float64(len(db))
		s.AvgEdges /= float64(len(db))
		s.Density = totalDensity / float64(len(db))
	}
	s.NumLabels = len(labels)
	return s
}
