package core

import (
	"context"
	"math/rand"
	"testing"

	"prague/internal/graph"
	"prague/internal/patterns"
	"prague/internal/workpool"
)

func TestDeleteEdgesAtomicity(t *testing.T) {
	f := makeFixture(t, 31, 25, 0.25)
	e, err := New(f.db, f.idx, 2)
	if err != nil {
		t.Fatal(err)
	}
	// Path C-C-C-C-C: edges 1..4.
	n := make([]int, 5)
	for i := range n {
		n[i] = e.AddNode("C")
	}
	for i := 0; i < 4; i++ {
		if out, err := e.AddEdge(n[i], n[i+1]); err != nil {
			t.Fatal(err)
		} else if out.NeedsChoice {
			e.ChooseSimilarity()
		}
	}
	// Deleting {2,3} leaves {1,4}: disconnected — must fail atomically.
	if _, err := e.DeleteEdges([]int{2, 3}); err == nil {
		t.Fatal("disconnecting multi-delete succeeded")
	}
	if e.Query().Size() != 4 {
		t.Fatal("failed multi-delete mutated the query")
	}
	// Deleting {3,4} leaves {1,2}: connected, even though deleting 3 alone
	// would disconnect (this is what single DeleteEdge cannot do).
	if err := e.Query().Clone().DeleteEdge(3); err == nil {
		t.Fatal("test premise broken: deleting e3 alone should disconnect")
	}
	if _, err := e.DeleteEdges([]int{3, 4}); err != nil {
		t.Fatal(err)
	}
	if e.Query().Size() != 2 {
		t.Fatalf("query has %d edges, want 2", e.Query().Size())
	}
	// Engine state must equal a fresh 2-edge formulation.
	fresh, err := New(f.db, f.idx, 2)
	if err != nil {
		t.Fatal(err)
	}
	a := fresh.AddNode("C")
	b := fresh.AddNode("C")
	c := fresh.AddNode("C")
	fresh.AddEdge(a, b)
	if out, err := fresh.AddEdge(b, c); err != nil {
		t.Fatal(err)
	} else if out.NeedsChoice {
		fresh.ChooseSimilarity()
	}
	gotR, err := e.Run()
	if err != nil {
		t.Fatal(err)
	}
	wantR, err := fresh.Run()
	if err != nil {
		t.Fatal(err)
	}
	if len(gotR) != len(wantR) {
		t.Fatalf("multi-delete result count %d != fresh %d", len(gotR), len(wantR))
	}
	for i := range gotR {
		if gotR[i] != wantR[i] {
			t.Fatalf("result %d differs", i)
		}
	}
	// Duplicate and missing step validation.
	if _, err := e.DeleteEdges([]int{1, 1}); err == nil {
		t.Error("duplicate steps accepted")
	}
	if _, err := e.DeleteEdges([]int{99}); err == nil {
		t.Error("missing step accepted")
	}
}

func TestRelabelNodeEquivalentToScratch(t *testing.T) {
	f := makeFixture(t, 32, 30, 0.25)
	r := rand.New(rand.NewSource(32))
	for trial := 0; trial < 8; trial++ {
		spec := randomQuerySpec(r, []string{"C", "N", "O"}, 5)
		e, err := New(f.db, f.idx, 2)
		if err != nil {
			t.Fatal(err)
		}
		formulate(t, e, spec)
		// Relabel a random node that participates in the fragment.
		node := r.Intn(len(spec.labels))
		newLabel := "S"
		if _, err := e.RelabelNode(node, newLabel); err != nil {
			t.Fatal(err)
		}
		if e.AwaitingChoice() {
			e.ChooseSimilarity()
		}
		qg, _ := e.Query().Graph()
		// SPIG set must cover exactly the relabeled query's subgraph classes.
		subs := graph.ConnectedEdgeSubgraphs(qg)
		for k := 1; k <= qg.Size(); k++ {
			got := map[string]bool{}
			for _, v := range e.Spigs().LevelVertices(k) {
				got[v.Code] = true
			}
			if len(got) != len(subs[k]) {
				t.Fatalf("trial %d level %d: %d classes, want %d", trial, k, len(got), len(subs[k]))
			}
			for _, sg := range subs[k] {
				if !got[graph.CanonicalCode(sg)] {
					t.Fatalf("trial %d level %d: missing class", trial, k)
				}
			}
		}
		// Results must match a scratch engine over the relabeled query.
		fresh, err := New(f.db, f.idx, 2)
		if err != nil {
			t.Fatal(err)
		}
		formulate(t, fresh, specFromGraph(qg))
		if fresh.SimilarityMode() != e.SimilarityMode() {
			continue
		}
		gotR, err := e.Run()
		if err != nil {
			t.Fatal(err)
		}
		wantR, err := fresh.Run()
		if err != nil {
			t.Fatal(err)
		}
		if len(gotR) != len(wantR) {
			t.Fatalf("trial %d: relabeled %d results, scratch %d", trial, len(gotR), len(wantR))
		}
		for i := range gotR {
			if gotR[i] != wantR[i] {
				t.Fatalf("trial %d: result %d differs", trial, i)
			}
		}
	}
}

func TestRelabelNodeNoOpAndValidation(t *testing.T) {
	f := makeFixture(t, 33, 15, 0.3)
	e, err := New(f.db, f.idx, 2)
	if err != nil {
		t.Fatal(err)
	}
	a := e.AddNode("C")
	b := e.AddNode("C")
	if _, err := e.AddEdge(a, b); err != nil {
		t.Fatal(err)
	}
	if _, err := e.RelabelNode(99, "N"); err == nil {
		t.Error("relabeling a missing node succeeded")
	}
	before := e.Query().Steps()
	if _, err := e.RelabelNode(a, "C"); err != nil { // same label: no-op
		t.Fatal(err)
	}
	after := e.Query().Steps()
	if len(before) != len(after) || before[0] != after[0] {
		t.Error("no-op relabel changed edge steps")
	}
}

func TestAddPatternBenzene(t *testing.T) {
	f := makeFixture(t, 34, 30, 0.25)
	e, err := New(f.db, f.idx, 2)
	if err != nil {
		t.Fatal(err)
	}
	ids, out, err := e.AddPattern(patterns.Benzene(), nil)
	if err != nil {
		t.Fatal(err)
	}
	if len(ids) != 6 || e.Query().Size() != 6 {
		t.Fatalf("benzene gave %d ids / %d edges", len(ids), e.Query().Size())
	}
	if out.Step == 0 {
		t.Error("no outcome for the last pattern edge")
	}
	// Every edge got a SPIG.
	if len(e.Spigs().Labels()) != 6 {
		t.Fatalf("%d SPIGs, want 6", len(e.Spigs().Labels()))
	}
	qg, _ := e.Query().Graph()
	if graph.CanonicalCode(qg) != graph.CanonicalCode(patterns.Benzene()) {
		t.Error("canvas does not hold a benzene ring")
	}
	// Attach a chain to one ring carbon.
	chain, err := patterns.Chain("C", "O")
	if err != nil {
		t.Fatal(err)
	}
	if _, _, err := e.AddPattern(chain, map[int]int{0: ids[0]}); err != nil {
		t.Fatal(err)
	}
	if e.Query().Size() != 7 {
		t.Fatalf("after chain attach: %d edges", e.Query().Size())
	}
}

func TestAddPatternPreservesEdgeLabels(t *testing.T) {
	// Regression: pattern edges must carry their edge labels onto the
	// canvas (a Kekulé benzene must not degrade to an unlabeled ring).
	f := makeFixture(t, 37, 15, 0.3)
	e, err := New(f.db, f.idx, 2)
	if err != nil {
		t.Fatal(err)
	}
	kek := patterns.KekuleBenzene()
	if _, out, err := e.AddPattern(kek, nil); err != nil {
		t.Fatal(err)
	} else if out.NeedsChoice {
		e.ChooseSimilarity()
	}
	qg, _ := e.Query().Graph()
	if graph.CanonicalCode(qg) != graph.CanonicalCode(kek) {
		t.Fatal("pattern edge labels lost on the canvas")
	}
}

func TestAddPatternValidation(t *testing.T) {
	f := makeFixture(t, 35, 15, 0.3)
	e, err := New(f.db, f.idx, 2)
	if err != nil {
		t.Fatal(err)
	}
	if _, _, err := e.AddPattern(nil, nil); err == nil {
		t.Error("nil pattern accepted")
	}
	// First pattern fine; second without attachment must fail.
	if _, _, err := e.AddPattern(patterns.Benzene(), nil); err != nil {
		t.Fatal(err)
	}
	if _, _, err := e.AddPattern(patterns.Benzene(), nil); err == nil {
		t.Error("floating second pattern accepted")
	}
	// Label mismatch on attach.
	star, err := patterns.Star("N", "O")
	if err != nil {
		t.Fatal(err)
	}
	if _, _, err := e.AddPattern(star, map[int]int{0: 0}); err == nil {
		t.Error("label-mismatched attach accepted")
	}
	if _, _, err := e.AddPattern(star, map[int]int{9: 0}); err == nil {
		t.Error("out-of-range attach accepted")
	}
}

func TestParallelVerificationMatchesSequential(t *testing.T) {
	f := makeFixture(t, 36, 40, 0.25)
	r := rand.New(rand.NewSource(36))
	pool := workpool.New(4)
	defer pool.Close()
	for trial := 0; trial < 6; trial++ {
		spec := randomQuerySpec(r, []string{"C", "N", "O"}, 5)
		seq, err := New(f.db, f.idx, 2)
		if err != nil {
			t.Fatal(err)
		}
		par, err := New(f.db, f.idx, 2)
		if err != nil {
			t.Fatal(err)
		}
		par.SetPool(pool)
		formulate(t, seq, spec)
		formulate(t, par, spec)
		a, err := seq.Run()
		if err != nil {
			t.Fatal(err)
		}
		b, err := par.Run()
		if err != nil {
			t.Fatal(err)
		}
		if len(a) != len(b) {
			t.Fatalf("trial %d: %d vs %d results", trial, len(a), len(b))
		}
		for i := range a {
			if a[i] != b[i] {
				t.Fatalf("trial %d: result %d differs: %+v vs %+v", trial, i, a[i], b[i])
			}
		}
	}
}

func TestParallelFilterSmallAndLarge(t *testing.T) {
	pred := func(id int) bool { return id%3 == 0 }
	var ids []int
	for i := 0; i < 100; i++ {
		ids = append(ids, i)
	}
	ctx := context.Background()
	var inline *workpool.Pool
	seqOut, err := inline.Filter(ctx, ids, pred)
	if err != nil {
		t.Fatal(err)
	}
	pool := workpool.New(8)
	defer pool.Close()
	parOut, err := pool.Filter(ctx, ids, pred)
	if err != nil {
		t.Fatal(err)
	}
	if len(seqOut) != len(parOut) {
		t.Fatalf("lengths differ: %d vs %d", len(seqOut), len(parOut))
	}
	for i := range seqOut {
		if seqOut[i] != parOut[i] {
			t.Fatal("order not preserved")
		}
	}
	if out, _ := pool.Filter(ctx, nil, pred); out != nil {
		t.Error("empty input should return nil")
	}
}
