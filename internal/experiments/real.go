package experiments

import (
	"fmt"

	"prague/internal/distvp"
	"prague/internal/index"
	"prague/internal/mining"
	"prague/internal/workload"
)

// Table2 reproduces Table II: index sizes (MB) of DVP (σ = 1..4) vs PRG vs
// SG/GR on the AIDS-like dataset.
func (s *Suite) Table2() error {
	if err := s.ensureAIDSFeatures(); err != nil {
		return err
	}
	s.header("Table II: index size comparison (MB), AIDS-like dataset")
	s.printf("%-10s", "system")
	for sig := 1; sig <= 4; sig++ {
		s.printf("  DVP σ=%d", sig)
	}
	s.printf("  %8s  %8s\n", "PRG", "SG/GR")

	s.printf("%-10s", "size(MB)")
	for sig := 1; sig <= 4; sig++ {
		dvp, err := distvp.New(s.aidsDB, s.aidsFeat, sig)
		if err != nil {
			return err
		}
		s.printf("  %7.2f", float64(dvp.IndexSizeBytes())/(1<<20))
	}
	prgTotal, _, _ := s.aidsIdx.SizeBytes()
	bl, err := newBaselines(s.aidsDB, s.aidsFeat, 1)
	if err != nil {
		return err
	}
	s.printf("  %8.2f  %8.2f\n", float64(prgTotal)/(1<<20), float64(bl.gr.IndexSizeBytes())/(1<<20))
	return nil
}

// Fig9a reproduces Figure 9(a): SRT (ms) of subgraph containment queries,
// GBLENDER vs PRAGUE (the SPIG-based engine must not lose ground on exact
// queries).
func (s *Suite) Fig9a() error {
	if err := s.ensureAIDSContainmentQueries(); err != nil {
		return err
	}
	s.header("Figure 9(a): containment query SRT (ms), GBR vs PRG")
	s.printf("%-6s %6s %12s %12s %10s\n", "query", "|q|", "GBR SRT(ms)", "PRG SRT(ms)", "results")
	for _, wq := range s.aidsCQs {
		_, gbrSRT, err := runGBlender(s.aidsDB, s.aidsIdx, wq)
		if err != nil {
			return err
		}
		prg, err := runPrague(s.aidsDB, s.aidsIdx, wq, s.cfg.Sigma, false)
		if err != nil {
			return err
		}
		s.printf("%-6s %6d %12.3f %12.3f %10d\n",
			wq.Name, wq.Size(), ms(gbrSRT), ms(prg.srt), len(prg.results))
	}
	return nil
}

// Fig9be reproduces Figures 9(b)-(e): candidate-set sizes of Q1-Q4 for
// σ = 1..4, PRG vs GR vs SG vs DVP. PRG's candidate size is |Rfree ∪ Rver|;
// DVP reports verification-needed candidates only (as in the paper).
func (s *Suite) Fig9be() error {
	if err := s.ensureAIDSQueries(); err != nil {
		return err
	}
	if err := s.ensureAIDSFeatures(); err != nil {
		return err
	}
	bl, err := newBaselines(s.aidsDB, s.aidsFeat, 4)
	if err != nil {
		return err
	}
	s.header("Figures 9(b)-(e): candidate size vs σ (AIDS-like)")
	s.printf("%-6s %3s %8s %8s %8s %8s   (PRG free/ver)\n", "query", "σ", "PRG", "GR", "SG", "DVP")
	for _, wq := range s.aidsQueries {
		qg := wq.Graph()
		for sig := 1; sig <= 4; sig++ {
			rep, err := runPrague(s.aidsDB, s.aidsIdx, wq, sig, false)
			if err != nil {
				return err
			}
			grC := len(bl.gr.Candidates(qg, sig))
			sgC := len(bl.sg.Candidates(qg, sig))
			dvpC, err := bl.dvp.Candidates(qg, sig)
			if err != nil {
				return err
			}
			s.printf("%-6s %3d %8d %8d %8d %8d   (%d/%d)\n",
				wq.Name, sig, rep.total, grC, sgC, len(dvpC), rep.free, rep.ver)
		}
	}
	return nil
}

// Fig9fi reproduces Figures 9(f)-(i): SRT (s) of Q1-Q4 for σ = 1..4. For the
// traditional systems SRT is the whole query evaluation (filter + verify);
// for PRG it is only the residual work after Run.
func (s *Suite) Fig9fi() error {
	if err := s.ensureAIDSQueries(); err != nil {
		return err
	}
	if err := s.ensureAIDSFeatures(); err != nil {
		return err
	}
	bl, err := newBaselines(s.aidsDB, s.aidsFeat, 4)
	if err != nil {
		return err
	}
	s.header("Figures 9(f)-(i): SRT (s) vs σ (AIDS-like)")
	s.printf("%-6s %3s %10s %10s %10s %10s %9s\n", "query", "σ", "PRG", "GR", "SG", "DVP", "results")
	for _, wq := range s.aidsQueries {
		qg := wq.Graph()
		for sig := 1; sig <= 4; sig++ {
			rep, err := runPrague(s.aidsDB, s.aidsIdx, wq, sig, false)
			if err != nil {
				return err
			}
			_, grM, err := bl.gr.Query(qg, sig)
			if err != nil {
				return err
			}
			_, sgM, err := bl.sg.Query(qg, sig)
			if err != nil {
				return err
			}
			_, dvpM, err := bl.dvp.Query(qg, sig)
			if err != nil {
				return err
			}
			s.printf("%-6s %3d %10.4f %10.4f %10.4f %10.4f %9d\n",
				wq.Name, sig,
				sec(rep.srt),
				sec(grM.FilterTime+grM.VerifyTime),
				sec(sgM.FilterTime+sgM.VerifyTime),
				sec(dvpM.FilterTime+dvpM.VerifyTime),
				len(rep.results))
		}
	}
	return nil
}

// Fig9j reproduces Figure 9(j): PRG's SRT for Q1-Q4 under different minimum
// support thresholds α (indexes are re-mined per α).
func (s *Suite) Fig9j() error {
	if err := s.ensureAIDSQueries(); err != nil {
		return err
	}
	alphas := []float64{0.05, 0.1, 0.15, 0.2}
	s.header("Figure 9(j): PRG SRT (s) vs α (AIDS-like)")
	s.printf("%-6s", "query")
	for _, a := range alphas {
		s.printf(" α=%-7.2f", a)
	}
	s.printf("\n")

	srts := map[string][]float64{}
	for _, a := range alphas {
		idx := s.aidsIdx
		if a != aidsAlpha {
			mined, err := mining.Mine(s.aidsDB, mining.Options{
				MinSupportRatio: a, MaxSize: aidsMaxFrag, IncludeZeroSupportPairs: true,
			})
			if err != nil {
				return err
			}
			idx, err = index.Build(mined, a, aidsBeta)
			if err != nil {
				return err
			}
		}
		for _, wq := range s.aidsQueries {
			rep, err := runPrague(s.aidsDB, idx, wq, s.cfg.Sigma, false)
			if err != nil {
				return err
			}
			srts[wq.Name] = append(srts[wq.Name], sec(rep.srt))
		}
	}
	for _, wq := range s.aidsQueries {
		s.printf("%-6s", wq.Name)
		for _, v := range srts[wq.Name] {
			s.printf(" %-9.4f", v)
		}
		s.printf("\n")
	}
	return nil
}

// Table3 reproduces Table III: per-step SPIG construction time under two
// different formulation sequences for Q1 and Q3, plus the average SRT —
// showing sequences barely matter and construction fits in GUI latency.
func (s *Suite) Table3() error {
	if err := s.ensureAIDSQueries(); err != nil {
		return err
	}
	s.header("Table III: SPIG construction time per step (ms) under two formulation sequences")
	picks := []workload.Query{s.aidsQueries[0], s.aidsQueries[2]} // Q1 and Q3
	for _, wq := range picks {
		for _, v := range []struct {
			name string
			q    workload.Query
		}{{"default", wq}, {"permuted", wq.Permuted(s.cfg.Seed + 5)}} {
			rep, err := runPrague(s.aidsDB, s.aidsIdx, v.q, s.cfg.Sigma, false)
			if err != nil {
				return err
			}
			s.printf("%-4s %-9s", wq.Name, v.name)
			for _, st := range rep.steps {
				s.printf(" %7.3f", ms(st.SpigTime))
			}
			_, violations := qft(rep.stepCompute())
			s.printf("  | SRT=%.4fs violations=%d\n", sec(rep.srt), violations)
		}
	}
	return nil
}

// Table4 reproduces Table IV: query modification cost (ms) for Q1-Q4 when
// the user deletes e1 (worst case) after drawing the 4th, 5th, ... edge.
func (s *Suite) Table4() error {
	if err := s.ensureAIDSQueries(); err != nil {
		return err
	}
	s.header("Table IV: query modification cost (ms), delete e1 after edge i (AIDS-like)")
	s.printf("%-6s", "query")
	maxEdges := 0
	for _, wq := range s.aidsQueries {
		if wq.Size() > maxEdges {
			maxEdges = wq.Size()
		}
	}
	for i := 4; i <= maxEdges; i++ {
		s.printf(" %8s", fmt.Sprintf("e%d", i))
	}
	s.printf("\n")
	for _, wq := range s.aidsQueries {
		s.printf("%-6s", wq.Name)
		for i := 4; i <= maxEdges; i++ {
			if i > wq.Size() {
				s.printf(" %8s", "-")
				continue
			}
			// Formulate the first i edges, then delete e1 — the paper's
			// worst-case modification at step i.
			trunc := wq
			trunc.Edges = wq.Edges[:i]
			rep, err := runPrague(s.aidsDB, s.aidsIdx, trunc, s.cfg.Sigma, true)
			if err != nil {
				return err
			}
			s.printf(" %8.3f", ms(rep.modify))
		}
		s.printf("\n")
	}
	return nil
}
