// Quickstart: the full PRAGUE flow in one small program — generate a
// database, build the action-aware indexes, wrap both in a store, start a
// session service over it,
// formulate a query edge by edge (each step evaluated during "GUI
// latency"), and run it with the context-first API.
package main

import (
	"context"
	"fmt"
	"log"
	"os"
	"time"

	prague "prague"
)

func main() {
	// A small AIDS-like molecule database.
	db, err := prague.GenerateMolecules(1000, 42)
	if err != nil {
		log.Fatal(err)
	}
	stats := db.Stats()
	fmt.Printf("database: %d graphs, avg %.1f nodes / %.1f edges\n",
		stats.NumGraphs, stats.AvgNodes, stats.AvgEdges)

	// Offline preprocessing: mine frequent fragments and DIFs, build A²F/A²I.
	ix, err := prague.BuildIndexes(db, prague.IndexOptions{Alpha: 0.1, Beta: 4, MaxFragmentSize: 6})
	if err != nil {
		log.Fatal(err)
	}

	// The store holds the database and its indexes; its constructor chooses
	// the layout (NewStore's shard count, 1 here for the monolithic layout;
	// DialStore serves remote shard servers). A service multiplexes many concurrent sessions over it;
	// σ = 2 means results may miss up to two query edges.
	st, err := prague.NewStore(db, ix, 1)
	if err != nil {
		log.Fatal(err)
	}
	svc, err := prague.NewService(st, prague.WithSigma(2))
	if err != nil {
		log.Fatal(err)
	}
	defer svc.Close()

	// Every evaluation call takes a context; a deadline bounds how long a
	// single step or run may take before returning partial results.
	ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
	defer cancel()

	s, err := svc.Create(ctx)
	if err != nil {
		log.Fatal(err)
	}

	// Formulate C-C-C-O visually: drop nodes, then draw edges one at a
	// time. The engine evaluates after every edge.
	c1, _ := s.AddNode("C")
	c2, _ := s.AddNode("C")
	c3, _ := s.AddNode("C")
	o, _ := s.AddNode("O")

	for _, e := range [][2]int{{c1, c2}, {c2, c3}, {c3, o}} {
		out, err := s.AddEdge(ctx, e[0], e[1])
		if err != nil {
			log.Fatal(err)
		}
		fmt.Printf("step %d: status=%s exact-candidates=%d (SPIG %v, eval %v)\n",
			out.Step, out.Status, out.ExactCount, out.SpigTime, out.EvalTime)
		if out.NeedsChoice {
			// No exact match left: continue as a similarity query. (Run
			// would refuse with prague.ErrAwaitingChoice until we decide.)
			out, err = s.ChooseSimilarity(ctx)
			if err != nil {
				log.Fatal(err)
			}
			fmt.Printf("        switched to similarity search: Rfree=%d Rver=%d\n",
				out.FreeCount, out.VerCount)
		}
	}

	// Press Run: only the residual work happens now (the SRT).
	results, err := s.Run(ctx)
	if err != nil {
		log.Fatal(err)
	}
	info, _ := s.Describe()
	fmt.Printf("\n%d results, SRT = %v\n", len(results), info.SRT)
	for i, r := range results {
		if i == 5 {
			fmt.Printf("  ... and %d more\n", len(results)-5)
			break
		}
		g, _ := db.Graph(r.GraphID)
		fmt.Printf("  graph %d (distance %d): %d nodes, %d edges\n",
			r.GraphID, r.Distance, g.NumNodes(), g.NumEdges())
	}

	// What the service measured across the session, as JSON.
	fmt.Println("\nmetrics:")
	if err := svc.Snapshot().WriteJSON(os.Stdout); err != nil {
		log.Fatal(err)
	}
}
