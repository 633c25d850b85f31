package prague_test

import (
	"context"
	"fmt"
	"log"

	prague "prague"
)

// Example shows the complete PRAGUE flow: generate a database, build the
// action-aware indexes, formulate a query edge by edge, and run it.
func Example() {
	db, err := prague.GenerateMolecules(300, 42)
	if err != nil {
		log.Fatal(err)
	}
	ix, err := prague.BuildIndexes(db, prague.IndexOptions{Alpha: 0.1, Beta: 3, MaxFragmentSize: 5})
	if err != nil {
		log.Fatal(err)
	}
	s, err := prague.NewSession(db, ix, 2)
	if err != nil {
		log.Fatal(err)
	}

	c1 := s.AddNode("C")
	c2 := s.AddNode("C")
	out, err := s.AddEdge(c1, c2)
	if err != nil {
		log.Fatal(err)
	}
	fmt.Println("status after first edge:", out.Status)

	results, err := s.Run()
	if err != nil {
		log.Fatal(err)
	}
	fmt.Println("all results exact:", allExact(results))
	// Output:
	// status after first edge: frequent
	// all results exact: true
}

func allExact(results []prague.Result) bool {
	for _, r := range results {
		if r.Distance != 0 {
			return false
		}
	}
	return true
}

// ExampleSession_ChooseSimilarity shows the similarity fallback: when the
// exact candidate set empties, the session degrades to MCCS-based
// substructure similarity search.
func ExampleSession_ChooseSimilarity() {
	db, _ := prague.GenerateMolecules(300, 42)
	ix, _ := prague.BuildIndexes(db, prague.IndexOptions{Alpha: 0.1, Beta: 3, MaxFragmentSize: 5})
	s, _ := prague.NewSession(db, ix, 2)

	// Se-Se-Se almost certainly has no exact match.
	a := s.AddNode("Se")
	b := s.AddNode("Se")
	c := s.AddNode("Se")
	out, _ := s.AddEdge(a, b)
	if out.NeedsChoice {
		s.ChooseSimilarity()
	}
	out, _ = s.AddEdge(b, c)
	if out.NeedsChoice {
		s.ChooseSimilarity()
	}
	fmt.Println("similarity mode:", s.SimilarityMode())
	// Output:
	// similarity mode: true
}

// ExampleSession_SuggestDeletion shows Algorithm 6: when no exact match
// remains, the engine recommends which edge to delete.
func ExampleSession_SuggestDeletion() {
	db, _ := prague.GenerateMolecules(300, 42)
	ix, _ := prague.BuildIndexes(db, prague.IndexOptions{Alpha: 0.1, Beta: 3, MaxFragmentSize: 5})
	s, _ := prague.NewSession(db, ix, 2)

	c1 := s.AddNode("C")
	c2 := s.AddNode("C")
	se := s.AddNode("Se")
	s.AddEdge(c1, c2) // e1: common
	out, _ := s.AddEdge(c2, se)
	_ = out
	sug, err := s.SuggestDeletion()
	if err != nil {
		fmt.Println("no suggestion:", err)
		return
	}
	fmt.Println("suggested deletion is a real edge:", sug.Step >= 1 && sug.Step <= 2)
	// Output:
	// suggested deletion is a real edge: true
}

// ExampleNewService_mutable shows online mutation: a service built over a
// GraphStore grows and shrinks its database while a session keeps
// querying. Each mutation publishes a new store epoch; the session's next
// Run pins it and observes the change.
func ExampleNewService_mutable() {
	db, err := prague.GenerateMolecules(150, 11)
	if err != nil {
		log.Fatal(err)
	}
	ix, err := prague.BuildIndexes(db, prague.IndexOptions{Alpha: 0.1, Beta: 3, MaxFragmentSize: 5})
	if err != nil {
		log.Fatal(err)
	}
	st, err := prague.NewStore(db, ix, 1)
	if err != nil {
		log.Fatal(err)
	}
	svc, err := prague.NewService(st, prague.WithSigma(2))
	if err != nil {
		log.Fatal(err)
	}
	defer svc.Close()

	ctx := context.Background()
	ss, _ := svc.Create(ctx)
	a, _ := ss.AddNode("C")
	b, _ := ss.AddNode("N")
	if _, err := ss.AddEdge(ctx, a, b); err != nil {
		log.Fatal(err)
	}
	before, err := ss.Run(ctx)
	if err != nil {
		log.Fatal(err)
	}

	// Grow the database online: a two-node C–N graph that matches exactly.
	g := prague.NewGraph(0)
	g.AddNode("C")
	g.AddNode("N")
	if err := g.AddEdge(0, 1); err != nil {
		log.Fatal(err)
	}
	id, err := svc.InsertGraph(ctx, g)
	if err != nil {
		log.Fatal(err)
	}
	after, err := ss.Run(ctx)
	if err != nil {
		log.Fatal(err)
	}
	exact := false
	for _, r := range after {
		if r.GraphID == id && r.Distance == 0 {
			exact = true
		}
	}
	fmt.Println("answers gained by insert:", len(after)-len(before))
	fmt.Println("inserted graph matched exactly:", exact)

	// Shrink it again: the id is tombstoned and leaves the answer set.
	if err := svc.DeleteGraph(ctx, id); err != nil {
		log.Fatal(err)
	}
	final, err := ss.Run(ctx)
	if err != nil {
		log.Fatal(err)
	}
	fmt.Println("back to baseline:", len(final) == len(before))
	fmt.Println("store epoch:", svc.Epoch())
	// Output:
	// answers gained by insert: 1
	// inserted graph matched exactly: true
	// back to baseline: true
	// store epoch: 2
}

// ExampleSession_AddPattern shows canned-pattern composition: a whole
// benzene ring dropped in one gesture, still evaluated edge by edge.
func ExampleSession_AddPattern() {
	db, _ := prague.GenerateMolecules(300, 42)
	ix, _ := prague.BuildIndexes(db, prague.IndexOptions{Alpha: 0.1, Beta: 3, MaxFragmentSize: 5})
	s, _ := prague.NewSession(db, ix, 3)

	ids, out, err := s.AddPattern(prague.Benzene(), nil)
	if err != nil {
		log.Fatal(err)
	}
	if out.NeedsChoice {
		s.ChooseSimilarity()
	}
	fmt.Println("pattern nodes:", len(ids))
	fmt.Println("query size:", s.Query().Size())
	// Output:
	// pattern nodes: 6
	// query size: 6
}
