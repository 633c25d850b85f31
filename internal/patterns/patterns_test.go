package patterns

import (
	"testing"

	"prague/internal/graph"
)

func TestRing(t *testing.T) {
	if _, err := Ring("C", "C"); err == nil {
		t.Error("2-node ring accepted")
	}
	g, err := Ring("C", "N", "O")
	if err != nil {
		t.Fatal(err)
	}
	if g.NumNodes() != 3 || g.NumEdges() != 3 || !g.Connected() {
		t.Fatalf("bad ring: %v", g)
	}
	for v := 0; v < 3; v++ {
		if g.Degree(v) != 2 {
			t.Errorf("ring node %d degree %d", v, g.Degree(v))
		}
	}
}

func TestBenzene(t *testing.T) {
	g := Benzene()
	if g.NumNodes() != 6 || g.NumEdges() != 6 {
		t.Fatal("benzene shape wrong")
	}
	for node := range g.NumNodes() {
		l := g.Label(node)
		if l != "C" {
			t.Fatal("benzene must be all carbon")
		}
	}
	ring6, _ := Ring("C", "C", "C", "C", "C", "C")
	if graph.CanonicalCode(g) != graph.CanonicalCode(ring6) {
		t.Error("benzene is not a C6 ring")
	}
}

func TestChain(t *testing.T) {
	if _, err := Chain("C"); err == nil {
		t.Error("1-node chain accepted")
	}
	g, err := Chain("C", "O", "N")
	if err != nil {
		t.Fatal(err)
	}
	if g.NumEdges() != 2 || g.Degree(1) != 2 {
		t.Fatal("chain shape wrong")
	}
}

func TestStar(t *testing.T) {
	if _, err := Star("C"); err == nil {
		t.Error("leafless star accepted")
	}
	g, err := Star("N", "C", "C", "C")
	if err != nil {
		t.Fatal(err)
	}
	if g.Degree(0) != 3 || g.Label(0) != "N" {
		t.Fatal("star shape wrong")
	}
}

func TestBondedRing(t *testing.T) {
	if _, err := BondedRing([]string{"C", "C"}, []string{"1", "1"}); err == nil {
		t.Error("2-node bonded ring accepted")
	}
	if _, err := BondedRing([]string{"C", "C", "C"}, []string{"1"}); err == nil {
		t.Error("bond/label count mismatch accepted")
	}
	g, err := BondedRing([]string{"C", "C", "C"}, []string{"1", "2", "1"})
	if err != nil {
		t.Fatal(err)
	}
	if g.EdgeLabel(0, 1) != "1" || g.EdgeLabel(1, 2) != "2" || g.EdgeLabel(2, 0) != "1" {
		t.Error("bond labels misplaced")
	}
}

func TestKekuleBenzene(t *testing.T) {
	g := KekuleBenzene()
	if g.NumNodes() != 6 || g.NumEdges() != 6 {
		t.Fatal("wrong shape")
	}
	singles, doubles := 0, 0
	for i := range g.Edges() {
		switch g.EdgeLabelAt(i) {
		case "1":
			singles++
		case "2":
			doubles++
		}
	}
	if singles != 3 || doubles != 3 {
		t.Errorf("bond alternation broken: %d singles, %d doubles", singles, doubles)
	}
	// Must differ from the unlabeled benzene.
	if graph.CanonicalCode(g) == graph.CanonicalCode(Benzene()) {
		t.Error("Kekulé benzene should not equal the unlabeled ring")
	}
}

func TestCarboxyl(t *testing.T) {
	g := Carboxyl()
	if g.NumNodes() != 3 || g.Degree(0) != 2 || g.Label(0) != "C" {
		t.Fatal("carboxyl shape wrong")
	}
}
