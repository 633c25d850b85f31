package experiments

import (
	"bytes"
	"slices"
	"strings"
	"testing"
	"time"

	"prague/internal/dataset"
	"prague/internal/graph"
	"prague/internal/index"
	"prague/internal/mining"
	"prague/internal/workload"
)

// TestSuiteSmoke runs every experiment at a tiny scale and checks each
// produces its section header and some rows. This is the integration test
// for the whole harness; the numbers themselves are validated by the
// engine/baseline tests against brute-force oracles.
func TestSuiteSmoke(t *testing.T) {
	if testing.Short() {
		t.Skip("experiment smoke test is slow")
	}
	var buf bytes.Buffer
	s := New(Config{Scale: 0.008, Seed: 42, Sigma: 3, Out: &buf})
	if err := s.RunAll(); err != nil {
		t.Fatal(err)
	}
	out := buf.String()
	wantHeaders := []string{
		"Table II", "Figure 9(a)", "Figures 9(b)-(e)", "Figures 9(f)-(i)",
		"Figure 9(j)", "Table III", "Table IV", "Figure 10(a)",
		"Figures 10(b)-(e)", "Table V", "Latency budget",
		"sequence invariance", "verification-free", "DIF pruning", "β sensitivity",
	}
	for _, h := range wantHeaders {
		if !strings.Contains(out, h) {
			t.Errorf("output missing section %q", h)
		}
	}
	if len(strings.Split(out, "\n")) < 80 {
		t.Errorf("suspiciously short output (%d bytes)", len(out))
	}
}

func TestUnknownExperiment(t *testing.T) {
	var buf bytes.Buffer
	s := New(Config{Scale: 0.008, Out: &buf})
	if err := s.Run("nope"); err == nil {
		t.Error("unknown experiment accepted")
	}
}

func TestNamesStable(t *testing.T) {
	// RunAll (exercised by TestSuiteSmoke) iterates Names(), so every name
	// is known to dispatch; here we only pin the published list.
	names := Names()
	if len(names) != 15 {
		t.Errorf("experiment list changed: %v", names)
	}
	seen := map[string]bool{}
	for _, n := range names {
		if seen[n] {
			t.Errorf("duplicate experiment name %q", n)
		}
		seen[n] = true
	}
}

func TestQFTAccountsLatencyBudget(t *testing.T) {
	for _, tc := range []struct {
		compute    []time.Duration
		qft        time.Duration
		violations int
	}{
		{nil, 0, 0},
		// Steps inside the budget each cost the full budget.
		{[]time.Duration{time.Millisecond, edgeBudget}, 2 * edgeBudget, 0},
		// A step over the budget costs its compute and counts once.
		{[]time.Duration{time.Millisecond, 3 * time.Second}, edgeBudget + 3*time.Second, 1},
		{[]time.Duration{5 * time.Second, edgeBudget + 1}, 7*time.Second + 1, 2},
	} {
		total, violations := qft(tc.compute)
		if total != tc.qft || violations != tc.violations {
			t.Errorf("qft(%v) = %v, %d; want %v, %d", tc.compute, total, violations, tc.qft, tc.violations)
		}
	}
}

func containmentFixture(t *testing.T) ([]*graph.Graph, *index.Set, []workload.Query) {
	t.Helper()
	db, err := dataset.Molecules(dataset.MoleculeOptions{NumGraphs: 250, Seed: 21, MeanNodes: 12, MaxNodes: 40})
	if err != nil {
		t.Fatal(err)
	}
	res, err := mining.Mine(db, mining.Options{MinSupportRatio: 0.1, MaxSize: 6, IncludeZeroSupportPairs: true})
	if err != nil {
		t.Fatal(err)
	}
	idx, err := index.Build(res, 0.1, 3)
	if err != nil {
		t.Fatal(err)
	}
	qs, err := workload.ContainmentQueries(db, 3, []int{4, 5, 6}, 17)
	if err != nil {
		t.Fatal(err)
	}
	return db, idx, qs
}

func resultIDs(t *testing.T, rep *prgSession) []int {
	t.Helper()
	ids := make([]int, len(rep.results))
	for i, r := range rep.results {
		if r.Distance != 0 {
			t.Fatalf("graph %d at distance %d in a containment answer", r.GraphID, r.Distance)
		}
		ids[i] = r.GraphID
	}
	return ids
}

// TestPragueGBlenderAgreeOnContainment is Figure 9(a)'s premise: PRAGUE and
// GBLENDER answer containment queries identically.
func TestPragueGBlenderAgreeOnContainment(t *testing.T) {
	db, idx, qs := containmentFixture(t)
	for _, wq := range qs {
		prg, err := runPrague(db, idx, wq, 2, false)
		if err != nil {
			t.Fatal(err)
		}
		gbr, _, err := runGBlender(db, idx, wq)
		if err != nil {
			t.Fatal(err)
		}
		if ids := resultIDs(t, prg); len(ids) == 0 || !slices.Equal(ids, gbr) {
			t.Fatalf("%s: PRG answered %v, GBR %v", wq.Name, ids, gbr)
		}
	}
}

// TestRunGBlender checks the GBLENDER session on its own: every containment
// query draws to a non-empty answer that is exactly the graphs a VF2 scan of
// the database finds.
func TestRunGBlender(t *testing.T) {
	db, idx, qs := containmentFixture(t)
	for _, wq := range qs {
		got, _, err := runGBlender(db, idx, wq)
		if err != nil {
			t.Fatal(err)
		}
		q := wq.Graph()
		var want []int
		for _, g := range db {
			if graph.SubgraphIsomorphic(q, g) {
				want = append(want, g.ID)
			}
		}
		if len(got) == 0 || !slices.Equal(got, want) {
			t.Fatalf("%s: GBR answered %v, a scan finds %v", wq.Name, got, want)
		}
	}
}

// TestRunPragueDeletesE1 checks the Tables IV/V session: the final deletion
// is timed, and the smaller query matches every graph the full one did.
func TestRunPragueDeletesE1(t *testing.T) {
	db, idx, qs := containmentFixture(t)
	for _, wq := range qs {
		full, err := runPrague(db, idx, wq, 2, false)
		if err != nil {
			t.Fatal(err)
		}
		mod, err := runPrague(db, idx, wq, 2, true)
		if err != nil {
			t.Fatal(err)
		}
		if full.modify != 0 || mod.modify <= 0 {
			t.Fatalf("%s: modification times %v without and %v with the deletion", wq.Name, full.modify, mod.modify)
		}
		got := resultIDs(t, mod)
		for _, id := range resultIDs(t, full) {
			if !slices.Contains(got, id) {
				t.Fatalf("%s: graph %d matches the query but not the query less e1", wq.Name, id)
			}
		}
	}
}
