package prague_test

import (
	"sync"
	"testing"

	"prague/internal/graph"
	"prague/internal/workpool"

	prague "prague"
)

// integration holds the database and indexes the integration tests share.
// Building and mining them dominates the tests' time, and none of the tests
// mutates them, so they are built once.
var integration struct {
	once sync.Once
	db   *prague.Database
	ix   *prague.Indexes
	err  error
}

// integrationFixture returns the shared database and indexes, building them
// on first use.
func integrationFixture(t *testing.T) (*prague.Database, *prague.Indexes) {
	t.Helper()
	integration.once.Do(func() {
		db, err := prague.GenerateMolecules(500, 77)
		if err != nil {
			integration.err = err
			return
		}
		integration.ix, integration.err = prague.BuildIndexes(db, prague.IndexOptions{Alpha: 0.1, Beta: 4, MaxFragmentSize: 6})
		integration.db = db
	})
	if integration.err != nil {
		t.Fatal(integration.err)
	}
	return integration.db, integration.ix
}

// TestConcurrentSessionsShareIndexes exercises the documented contract that
// sessions may share one index set: many goroutines formulate and run
// different queries against the same (lazily memoizing) indexes. Run with
// -race to validate the locking.
func TestConcurrentSessionsShareIndexes(t *testing.T) {
	db, ix := integrationFixture(t)
	dir := t.TempDir()
	if err := prague.SaveIndexes(ix, dir); err != nil {
		t.Fatal(err)
	}
	// Use the loaded variant, so the sessions read what came back from
	// disk.
	loaded, err := prague.LoadIndexes(dir)
	if err != nil {
		t.Fatal(err)
	}

	queries := [][]string{
		{"C", "C", "C"},
		{"C", "O", "C"},
		{"C", "N", "C", "C"},
		{"C", "C", "O"},
		{"N", "C", "C", "N"},
		{"C", "S", "C"},
	}
	pool := workpool.New(2)
	defer pool.Close()
	var wg sync.WaitGroup
	errs := make(chan error, len(queries)*4)
	for w := 0; w < 4; w++ {
		for _, labels := range queries {
			wg.Add(1)
			go func(labels []string) {
				defer wg.Done()
				s, err := prague.NewSession(db, loaded, 2)
				if err != nil {
					errs <- err
					return
				}
				s.SetPool(pool)
				ids := make([]int, len(labels))
				for i, l := range labels {
					ids[i] = s.AddNode(l)
				}
				for i := 0; i+1 < len(ids); i++ {
					out, err := s.AddEdge(ids[i], ids[i+1])
					if err != nil {
						errs <- err
						return
					}
					if out.NeedsChoice {
						s.ChooseSimilarity()
					}
				}
				if _, err := s.Run(); err != nil {
					errs <- err
				}
			}(labels)
		}
	}
	wg.Wait()
	close(errs)
	for err := range errs {
		t.Fatal(err)
	}
}

// TestPersistedIndexesAnswerIdentically compares session results between the
// in-memory and the persisted/reloaded index sets.
func TestPersistedIndexesAnswerIdentically(t *testing.T) {
	db, ix := integrationFixture(t)
	dir := t.TempDir()
	if err := prague.SaveIndexes(ix, dir); err != nil {
		t.Fatal(err)
	}
	loaded, err := prague.LoadIndexes(dir)
	if err != nil {
		t.Fatal(err)
	}

	run := func(ixs *prague.Indexes) []prague.Result {
		s, err := prague.NewSession(db, ixs, 2)
		if err != nil {
			t.Fatal(err)
		}
		a := s.AddNode("C")
		b := s.AddNode("C")
		c := s.AddNode("O")
		for _, e := range [][2]int{{a, b}, {b, c}} {
			out, err := s.AddEdge(e[0], e[1])
			if err != nil {
				t.Fatal(err)
			}
			if out.NeedsChoice {
				s.ChooseSimilarity()
			}
		}
		results, err := s.Run()
		if err != nil {
			t.Fatal(err)
		}
		return results
	}

	mem := run(ix)
	disk := run(loaded)
	if len(mem) != len(disk) {
		t.Fatalf("in-memory %d results, persisted %d", len(mem), len(disk))
	}
	for i := range mem {
		if mem[i] != disk[i] {
			t.Fatalf("result %d differs: %+v vs %+v", i, mem[i], disk[i])
		}
	}
}

// TestPatternSessionEndToEnd drives a whole session through the public API
// using canned patterns and checks the results against a brute-force oracle.
func TestPatternSessionEndToEnd(t *testing.T) {
	db, ix := integrationFixture(t)
	s, err := prague.NewSession(db, ix, 2)
	if err != nil {
		t.Fatal(err)
	}
	ids, out, err := s.AddPattern(prague.Benzene(), nil)
	if err != nil {
		t.Fatal(err)
	}
	if out.NeedsChoice {
		s.ChooseSimilarity()
	}
	chain, err := prague.Chain("C", "O")
	if err != nil {
		t.Fatal(err)
	}
	if _, out, err = s.AddPattern(chain, map[int]int{0: ids[0]}); err != nil {
		t.Fatal(err)
	}
	if out.NeedsChoice {
		s.ChooseSimilarity()
	}
	results, err := s.Run()
	if err != nil {
		t.Fatal(err)
	}

	qg, _ := s.Query().Graph()
	want := map[int]int{}
	for _, g := range db.Graphs() {
		if d := graph.SubgraphDistance(qg, g); d <= 2 {
			want[g.ID] = d
		}
	}
	if s.SimilarityMode() {
		if len(results) != len(want) {
			t.Fatalf("%d results, oracle %d", len(results), len(want))
		}
		for _, r := range results {
			if want[r.GraphID] != r.Distance {
				t.Fatalf("graph %d: distance %d, oracle %d", r.GraphID, r.Distance, want[r.GraphID])
			}
		}
	} else {
		exact := 0
		for _, d := range want {
			if d == 0 {
				exact++
			}
		}
		if len(results) != exact {
			t.Fatalf("%d exact results, oracle %d", len(results), exact)
		}
	}
}

// TestModificationLifecycle formulates, deletes, relabels, extends, and
// checks the final answer against the oracle — the practical session the
// paper's §VII motivates.
func TestModificationLifecycle(t *testing.T) {
	db, ix := integrationFixture(t)
	s, err := prague.NewSession(db, ix, 2)
	if err != nil {
		t.Fatal(err)
	}
	n := []int{s.AddNode("C"), s.AddNode("C"), s.AddNode("C"), s.AddNode("O")}
	steps := make([]int, 0, 4)
	for _, e := range [][2]int{{0, 1}, {1, 2}, {2, 3}, {0, 2}} {
		out, err := s.AddEdge(n[e[0]], n[e[1]])
		if err != nil {
			t.Fatal(err)
		}
		steps = append(steps, out.Step)
		if out.NeedsChoice {
			s.ChooseSimilarity()
		}
	}
	// Delete the C-O edge, relabel a carbon to nitrogen, add an edge back.
	if _, err := s.DeleteEdge(steps[2]); err != nil {
		t.Fatal(err)
	}
	if _, err := s.RelabelNode(n[1], "N"); err != nil {
		t.Fatal(err)
	}
	out, err := s.AddEdge(n[2], n[3])
	if err != nil {
		t.Fatal(err)
	}
	if out.NeedsChoice {
		s.ChooseSimilarity()
	}
	results, err := s.Run()
	if err != nil {
		t.Fatal(err)
	}

	qg, _ := s.Query().Graph()
	if s.SimilarityMode() {
		want := 0
		for _, g := range db.Graphs() {
			if graph.SubgraphDistance(qg, g) <= 2 {
				want++
			}
		}
		if len(results) != want {
			t.Fatalf("%d results, oracle %d", len(results), want)
		}
	} else {
		want := 0
		for _, g := range db.Graphs() {
			if graph.SubgraphIsomorphic(qg, g) {
				want++
			}
		}
		if len(results) != want {
			t.Fatalf("%d exact results, oracle %d", len(results), want)
		}
	}
}
