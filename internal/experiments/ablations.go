package experiments

import (
	"fmt"

	"prague/internal/core"
	"prague/internal/graph"
	"prague/internal/index"
	"prague/internal/mining"
	"prague/internal/workload"
)

// AblationSequence checks the claim after Lemma 2: the candidate set (and
// hence the SRT regime) is invariant to the formulation sequence. Each
// AIDS query is run under three sequences; a permuted sequence whose
// (free, ver, total) differs from the default order's is an error.
func (s *Suite) AblationSequence() error {
	if err := s.ensureAIDSQueries(); err != nil {
		return err
	}
	s.header("Ablation: formulation-sequence invariance of the candidate set")
	s.printf("%-6s %-10s %8s %8s %8s %10s\n", "query", "sequence", "free", "ver", "total", "SRT(s)")
	for _, wq := range s.aidsQueries {
		var want [3]int
		for _, v := range []struct {
			name string
			seed int64
		}{{"default", 0}, {"perm-a", s.cfg.Seed + 11}, {"perm-b", s.cfg.Seed + 23}} {
			q := wq
			if v.seed != 0 {
				q = wq.Permuted(v.seed)
				q.Name = wq.Name
			}
			rep, err := runPrague(s.aidsDB, s.aidsIdx, q, s.cfg.Sigma, false)
			if err != nil {
				return err
			}
			s.printf("%-6s %-10s %8d %8d %8d %10.4f\n",
				wq.Name, v.name, rep.free, rep.ver, rep.total, sec(rep.srt))
			got := [3]int{rep.free, rep.ver, rep.total}
			if v.seed == 0 {
				want = got
			} else if got != want {
				return fmt.Errorf("%s: sequence %s gives (free, ver, total) %v, the default order %v", wq.Name, v.name, got, want)
			}
		}
	}
	return nil
}

// AblationFreeVer contrasts the best-case query (candidates verification-
// free) with the worst-case queries (all candidates verified): the
// Rfree/Rver split is where PRAGUE's verification savings come from.
func (s *Suite) AblationFreeVer() error {
	if err := s.ensureAIDSQueries(); err != nil {
		return err
	}
	s.header("Ablation: verification-free vs to-verify candidates (σ=3)")
	s.printf("%-6s %-6s %8s %8s %10s %9s\n", "query", "class", "free", "ver", "SRT(s)", "results")
	for _, wq := range s.aidsQueries {
		rep, err := runPrague(s.aidsDB, s.aidsIdx, wq, s.cfg.Sigma, false)
		if err != nil {
			return err
		}
		s.printf("%-6s %-6s %8d %8d %10.4f %9d\n",
			wq.Name, wq.Class, rep.free, rep.ver, sec(rep.srt), len(rep.results))
	}
	return nil
}

// AblationDIF disables the A²I-index (no DIFs) and compares candidate sizes:
// the paper attributes PRG's pruning power on similarity queries mainly to
// DIFs.
func (s *Suite) AblationDIF() error {
	if err := s.ensureAIDSQueries(); err != nil {
		return err
	}
	// Rebuild indexes from a mining result stripped of DIFs.
	stripped := &mining.Result{
		Frequent:  s.aidsMined.Frequent,
		ByCode:    s.aidsMined.ByCode,
		DIFByCode: map[string]*mining.Fragment{},
		MinSup:    s.aidsMined.MinSup,
		MaxSize:   s.aidsMined.MaxSize,
		NumGraphs: s.aidsMined.NumGraphs,
	}
	noDif, err := index.Build(stripped, aidsAlpha, aidsBeta)
	if err != nil {
		return err
	}
	s.header("Ablation: DIF pruning power (A²I disabled vs enabled, σ=3)")
	s.printf("%-6s %12s %12s\n", "query", "with DIFs", "without DIFs")
	for _, wq := range s.aidsQueries {
		// Force similarity mode on both engines: without DIFs the engine
		// cannot even detect that Rq is empty, so the comparison must be
		// made on the similarity candidate sets directly.
		with, err := forcedSimilarityCandidates(s.aidsDB, s.aidsIdx, wq, s.cfg.Sigma)
		if err != nil {
			return err
		}
		without, err := forcedSimilarityCandidates(s.aidsDB, noDif, wq, s.cfg.Sigma)
		if err != nil {
			return err
		}
		s.printf("%-6s %12d %12d\n", wq.Name, with, without)
	}
	return nil
}

// forcedSimilarityCandidates formulates wq and switches to similarity mode
// unconditionally, returning |Rfree ∪ Rver|.
func forcedSimilarityCandidates(db []*graph.Graph, idx *index.Set, wq workload.Query, sig int) (int, error) {
	e, err := core.New(db, idx, sig)
	if err != nil {
		return 0, err
	}
	if _, err := wq.Formulate(e); err != nil {
		return 0, err
	}
	e.ChooseSimilarity()
	_, _, total := e.CandidateCounts()
	return total, nil
}

// AblationBeta varies the MF/DF size threshold β; the paper reports a
// negligible effect, since candidate pruning depends on which fragments are
// indexed, not where they reside.
func (s *Suite) AblationBeta() error {
	if err := s.ensureAIDSQueries(); err != nil {
		return err
	}
	s.header("Ablation: β sensitivity (index size and SRT)")
	s.printf("%-4s %10s %8s %8s", "β", "size(MB)", "MF", "DF")
	for _, wq := range s.aidsQueries {
		s.printf(" %9s", wq.Name+" SRT")
	}
	s.printf("\n")
	for _, beta := range []int{3, 5, 7} {
		idx, err := index.Build(s.aidsMined, aidsAlpha, beta)
		if err != nil {
			return err
		}
		total, _, _ := idx.SizeBytes()
		s.printf("%-4d %10.2f %8d %8d", beta, float64(total)/(1<<20), idx.A2F.MFEntries(), idx.A2F.DFEntries())
		for _, wq := range s.aidsQueries {
			rep, err := runPrague(s.aidsDB, idx, wq, s.cfg.Sigma, false)
			if err != nil {
				return err
			}
			s.printf(" %9.4f", sec(rep.srt))
		}
		s.printf("\n")
	}
	return nil
}
