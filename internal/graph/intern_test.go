package graph

import (
	"strconv"
	"sync"
	"testing"
)

// oddLabels are labels the interner must hand back byte for byte: the empty
// label and every byte the canonical code escapes.
var oddLabels = []string{"", "C", `\`, ",", "(", ")", "[", "]", `x\,()[]y`, "Hg"}

func oddPath() *Graph {
	g := New(3)
	for i, l := range oddLabels {
		g.AddNode(l)
		if i > 0 {
			g.MustAddEdge(i-1, i)
		}
	}
	return g
}

func checkLabels(t *testing.T, what string, g *Graph, want []string) {
	t.Helper()
	if g.NumNodes() != len(want) {
		t.Fatalf("%s: %d nodes, want %d", what, g.NumNodes(), len(want))
	}
	for v, l := range want {
		if g.Label(v) != l {
			t.Errorf("%s: Label(%d) = %q, want %q", what, v, g.Label(v), l)
		}
	}
}

func TestLabelRoundTrip(t *testing.T) {
	g := oddPath()
	checkLabels(t, "AddNode", g, oddLabels)
	checkLabels(t, "Clone", g.Clone(), oddLabels)

	n := len(oddLabels)
	perm := make([]int, n)
	for i := range perm {
		perm[i] = n - 1 - i
	}
	p, err := g.Permute(perm)
	if err != nil {
		t.Fatal(err)
	}
	permuted := make([]string, n)
	for i, l := range oddLabels {
		permuted[perm[i]] = l
	}
	checkLabels(t, "Permute", p, permuted)

	code := MinDFSCode(g)
	cg := CodeGraph(code)
	for _, e := range code {
		if cg.Label(e.I) != e.LI || cg.Label(e.J) != e.LJ {
			t.Errorf("CodeGraph: tuple %+v reads back (%q, %q)", e, cg.Label(e.I), cg.Label(e.J))
		}
	}
	if CanonicalCode(cg) != CanonicalCode(g) {
		t.Error("CodeGraph: the rebuilt graph has another canonical code")
	}

	data, err := g.GobEncode()
	if err != nil {
		t.Fatal(err)
	}
	var back Graph
	if err := back.GobDecode(data); err != nil {
		t.Fatal(err)
	}
	checkLabels(t, "gob", &back, oddLabels)
}

// TestInternConcurrent interns overlapping fresh labels from 8 goroutines:
// each label must get exactly one id, and every id must read back as its
// label.
func TestInternConcurrent(t *testing.T) {
	const workers, labels = 8, 512
	ids := make([][]uint32, workers)
	var wg sync.WaitGroup
	for w := range workers {
		wg.Add(1)
		go func() {
			defer wg.Done()
			ids[w] = make([]uint32, labels)
			// Each goroutine starts at its own offset, so the first sight
			// of a label races between goroutines.
			for k := range labels {
				i := (k + w*labels/workers) % labels
				ids[w][i] = InternLabel("concurrent-" + strconv.Itoa(i))
			}
		}()
	}
	wg.Wait()
	for i := range labels {
		want := "concurrent-" + strconv.Itoa(i)
		for w := range workers {
			if ids[w][i] != ids[0][i] {
				t.Fatalf("%q got ids %d and %d", want, ids[0][i], ids[w][i])
			}
		}
		if got := LabelName(ids[0][i]); got != want {
			t.Fatalf("id %d reads back %q, want %q", ids[0][i], got, want)
		}
	}
}

// TestInternManyLabels interns 100 000 distinct labels. A table copied per
// new label would make this quadratic and time the test out.
func TestInternManyLabels(t *testing.T) {
	const n = 100_000
	ids := make([]uint32, n)
	seen := make(map[uint32]bool, n)
	for i := range ids {
		ids[i] = InternLabel("many-" + strconv.Itoa(i))
		if seen[ids[i]] {
			t.Fatalf("label %d shares id %d", i, ids[i])
		}
		seen[ids[i]] = true
	}
	for i, id := range ids {
		if want := "many-" + strconv.Itoa(i); LabelName(id) != want || InternLabel(want) != id {
			t.Fatalf("label %d does not round-trip through id %d", i, id)
		}
	}
}
