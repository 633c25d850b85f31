// Blending: the paper's headline claim made concrete — the same similarity
// query evaluated (a) the traditional way, where everything happens after
// Run (Grafil-style filter + verify), and (b) the PRAGUE way, where the
// engine works during each edge's GUI latency and only the residue counts
// toward the system response time.
package main

import (
	"fmt"
	"log"
	"time"

	"prague/internal/feature"
	"prague/internal/grafil"
	"prague/internal/mining"
	"prague/internal/workload"

	prague "prague"
)

func main() {
	const sigma = 3
	db, err := prague.GenerateMolecules(2000, 42)
	if err != nil {
		log.Fatal(err)
	}
	graphs := db.Graphs()

	mined, err := mining.Mine(graphs, mining.Options{
		MinSupportRatio: 0.1, MaxSize: 6, IncludeZeroSupportPairs: true,
	})
	if err != nil {
		log.Fatal(err)
	}
	ix, err := prague.BuildIndexes(db, prague.IndexOptions{Alpha: 0.1, Beta: 4, MaxFragmentSize: 6})
	if err != nil {
		log.Fatal(err)
	}
	feat, err := feature.Build(graphs, mined, feature.Options{MaxFeatureSize: 3, CountCap: 64})
	if err != nil {
		log.Fatal(err)
	}
	gr, err := grafil.New(graphs, feat)
	if err != nil {
		log.Fatal(err)
	}

	// Pick a similarity query the way the paper's benchmark does: a real
	// substructure mutated so it has no exact match.
	_, worst, err := workload.FindSimilarityQueries(graphs, ix, 0, 1, workload.Options{
		Seed: 5, Sigma: sigma, MinEdges: 6, MaxEdges: 7,
	})
	if err != nil {
		log.Fatal(err)
	}
	wq := worst[0]
	fmt.Printf("query: %d edges, exact candidates empty at step %d\n", wq.Size(), wq.EmptyAtStep)

	// (a) Traditional paradigm: user draws the query (engine idle), then
	// presses Run; SRT = the entire evaluation.
	qg := wq.Graph()
	results, m, err := gr.Query(qg, sigma)
	if err != nil {
		log.Fatal(err)
	}
	traditionalSRT := m.FilterTime + m.VerifyTime
	fmt.Printf("\ntraditional (Grafil): %d candidates, %d results, SRT = %v\n",
		m.Candidates, len(results), traditionalSRT.Round(time.Microsecond))

	// (b) Blended paradigm: the same query drawn edge by edge; the engine
	// works during the ≥ 2s a user needs to draw each edge.
	const edgeBudget = 2 * time.Second
	sess, err := prague.NewSession(db, ix, sigma)
	if err != nil {
		log.Fatal(err)
	}
	steps, err := wq.Formulate(sess)
	if err != nil {
		log.Fatal(err)
	}
	free, ver, total := sess.CandidateCounts()
	blended, err := sess.Run()
	if err != nil {
		log.Fatal(err)
	}
	srt := sess.Stats().RunTime
	fmt.Printf("blended (PRAGUE):     %d candidates (%d free / %d to verify), %d results, SRT = %v\n",
		total, free, ver, len(blended), srt.Round(time.Microsecond))
	violations := 0
	for _, st := range steps {
		if st.SpigTime+st.EvalTime > edgeBudget {
			violations++
		}
	}
	fmt.Printf("\nper-step compute (all inside the %v latency budget; %d violations):\n", edgeBudget, violations)
	for i, st := range steps {
		fmt.Printf("  step %d: SPIG %v + eval %v\n", i+1, st.SpigTime.Round(time.Microsecond), st.EvalTime.Round(time.Microsecond))
	}
	if srt > 0 {
		fmt.Printf("\nspeedup at the moment the user presses Run: %.1fx\n",
			float64(traditionalSRT)/float64(srt))
	}
}
