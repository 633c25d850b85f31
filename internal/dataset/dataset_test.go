package dataset

import (
	"testing"

	"prague/internal/graph"
)

func TestMoleculesValidation(t *testing.T) {
	if _, err := Molecules(MoleculeOptions{NumGraphs: 0}); err == nil {
		t.Error("zero graphs accepted")
	}
	if _, err := Molecules(MoleculeOptions{NumGraphs: 1, MeanNodes: 1}); err == nil {
		t.Error("mean of 1 accepted")
	}
	if _, err := Molecules(MoleculeOptions{NumGraphs: 1, MeanNodes: 30, MaxNodes: 10}); err == nil {
		t.Error("max < mean accepted")
	}
}

func TestMoleculesStatistics(t *testing.T) {
	db, err := Molecules(MoleculeOptions{NumGraphs: 800, Seed: 42})
	if err != nil {
		t.Fatal(err)
	}
	s := Stats(db)
	if s.AvgNodes < 18 || s.AvgNodes > 32 {
		t.Errorf("avg nodes %.1f outside AIDS-like range [18,32]", s.AvgNodes)
	}
	if s.AvgEdges < s.AvgNodes-1 || s.AvgEdges > s.AvgNodes+6 {
		t.Errorf("avg edges %.1f inconsistent with avg nodes %.1f", s.AvgEdges, s.AvgNodes)
	}
	if s.MaxNodes > 222 {
		t.Errorf("max nodes %d exceeds AIDS cap", s.MaxNodes)
	}
	// Carbon should dominate.
	counts := map[string]int{}
	total := 0
	for _, g := range db {
		for node := range g.NumNodes() {
			l := g.Label(node)
			counts[l]++
			total++
		}
	}
	if frac := float64(counts["C"]) / float64(total); frac < 0.6 || frac > 0.85 {
		t.Errorf("carbon fraction %.2f outside [0.6,0.85]", frac)
	}
	if counts["Hg"] == 0 {
		t.Error("no mercury atoms; rare-label tail missing (Q3 needs Hg)")
	}
}

func TestMoleculesAreValid(t *testing.T) {
	db, err := Molecules(MoleculeOptions{NumGraphs: 200, Seed: 7})
	if err != nil {
		t.Fatal(err)
	}
	for i, g := range db {
		if g.ID != i {
			t.Fatalf("graph %d has id %d", i, g.ID)
		}
		if !g.Connected() {
			t.Fatalf("graph %d disconnected", i)
		}
		for v := 0; v < g.NumNodes(); v++ {
			if g.Degree(v) > 4+1 { // tree fallback can exceed the cap by one
				t.Fatalf("graph %d node %d degree %d", i, v, g.Degree(v))
			}
		}
	}
}

func TestMoleculesDeterministic(t *testing.T) {
	a, _ := Molecules(MoleculeOptions{NumGraphs: 50, Seed: 9})
	b, _ := Molecules(MoleculeOptions{NumGraphs: 50, Seed: 9})
	for i := range a {
		if graph.CanonicalCode(a[i]) != graph.CanonicalCode(b[i]) {
			t.Fatalf("graph %d differs across runs with the same seed", i)
		}
	}
	c, _ := Molecules(MoleculeOptions{NumGraphs: 50, Seed: 10})
	same := 0
	for i := range a {
		if graph.CanonicalCode(a[i]) == graph.CanonicalCode(c[i]) {
			same++
		}
	}
	if same == len(a) {
		t.Error("different seeds produced identical databases")
	}
}

func TestSyntheticValidation(t *testing.T) {
	if _, err := Synthetic(SyntheticOptions{NumGraphs: 0}); err == nil {
		t.Error("zero graphs accepted")
	}
	if _, err := Synthetic(SyntheticOptions{NumGraphs: 1, Density: 2}); err == nil {
		t.Error("density > 1 accepted")
	}
}

func TestSyntheticStatistics(t *testing.T) {
	db, err := Synthetic(SyntheticOptions{NumGraphs: 500, Seed: 42})
	if err != nil {
		t.Fatal(err)
	}
	s := Stats(db)
	if s.AvgEdges < 24 || s.AvgEdges > 36 {
		t.Errorf("avg edges %.1f outside [24,36] (target 30)", s.AvgEdges)
	}
	if s.Density < 0.07 || s.Density > 0.14 {
		t.Errorf("density %.3f outside [0.07,0.14] (target 0.1)", s.Density)
	}
	if s.NumLabels != 20 {
		t.Errorf("label vocabulary %d, want 20", s.NumLabels)
	}
	for i, g := range db {
		if !g.Connected() {
			t.Fatalf("graph %d disconnected", i)
		}
	}
}

func TestSyntheticDeterministic(t *testing.T) {
	a, _ := Synthetic(SyntheticOptions{NumGraphs: 30, Seed: 3})
	b, _ := Synthetic(SyntheticOptions{NumGraphs: 30, Seed: 3})
	for i := range a {
		if graph.CanonicalCode(a[i]) != graph.CanonicalCode(b[i]) {
			t.Fatalf("graph %d differs across runs", i)
		}
	}
}

func TestStatsEmpty(t *testing.T) {
	s := Stats(nil)
	if s.NumGraphs != 0 || s.AvgNodes != 0 {
		t.Error("empty stats not zeroed")
	}
}
