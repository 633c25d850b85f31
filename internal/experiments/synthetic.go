package experiments

import "fmt"

// Fig10a reproduces Figure 10(a): index sizes (MB) on the synthetic
// datasets as |D| grows from 10K to 80K (× scale), PRG vs SG/GR.
func (s *Suite) Fig10a() error {
	s.header("Figure 10(a): index size (MB) vs synthetic dataset size")
	s.printf("%-10s %10s %10s %10s\n", "dataset", "graphs", "PRG", "SG/GR")
	for _, k := range s.synSizes() {
		if err := s.ensureSynthetic(k); err != nil {
			return err
		}
		prgTotal, _, _ := s.synIdx[k].SizeBytes()
		bl, err := newBaselines(s.synDB[k], s.synFeat[k], 1)
		if err != nil {
			return err
		}
		s.printf("%-10s %10d %10.3f %10.3f\n",
			fmt.Sprintf("%dK", k), len(s.synDB[k]),
			float64(prgTotal)/(1<<20), float64(bl.gr.IndexSizeBytes())/(1<<20))
	}
	return nil
}

// Fig10be reproduces Figures 10(b)-(e): SRT and candidate sizes of the
// synthetic queries as |D| grows (σ = 3). The paper plots Q6 and Q8 and
// reports Q5/Q7 in the technical report; we print all four.
func (s *Suite) Fig10be() error {
	if err := s.ensureSynQueries(); err != nil {
		return err
	}
	s.header("Figures 10(b)-(e): SRT (s) and candidate size vs synthetic dataset size (σ=3)")
	s.printf("%-6s %-8s %10s %10s %10s | %8s %8s %8s\n",
		"query", "dataset", "PRG SRT", "GR SRT", "SG SRT", "PRG cand", "GR cand", "SG cand")
	for _, wq := range s.synQueries {
		qg := wq.Graph()
		for _, k := range s.synSizes() {
			if err := s.ensureSynthetic(k); err != nil {
				return err
			}
			bl, err := newBaselines(s.synDB[k], s.synFeat[k], 1)
			if err != nil {
				return err
			}
			rep, err := runPrague(s.synDB[k], s.synIdx[k], wq, s.cfg.Sigma, false)
			if err != nil {
				return err
			}
			_, grM, err := bl.gr.Query(qg, s.cfg.Sigma)
			if err != nil {
				return err
			}
			_, sgM, err := bl.sg.Query(qg, s.cfg.Sigma)
			if err != nil {
				return err
			}
			s.printf("%-6s %-8s %10.4f %10.4f %10.4f | %8d %8d %8d\n",
				wq.Name, fmt.Sprintf("%dK", k),
				sec(rep.srt), sec(grM.FilterTime+grM.VerifyTime), sec(sgM.FilterTime+sgM.VerifyTime),
				rep.total, grM.Candidates, sgM.Candidates)
		}
	}
	return nil
}

// Table5 reproduces Table V: modification cost (ms) on the synthetic
// datasets — modify at the last step, always deleting e1 (worst case).
func (s *Suite) Table5() error {
	if err := s.ensureSynQueries(); err != nil {
		return err
	}
	s.header("Table V: query modification cost (ms), synthetic datasets")
	s.printf("%-6s", "query")
	for _, k := range s.synSizes() {
		s.printf(" %8s", fmt.Sprintf("%dK", k))
	}
	s.printf("\n")
	for _, wq := range s.synQueries {
		s.printf("%-6s", wq.Name)
		for _, k := range s.synSizes() {
			if err := s.ensureSynthetic(k); err != nil {
				return err
			}
			rep, err := runPrague(s.synDB[k], s.synIdx[k], wq, s.cfg.Sigma, true)
			if err != nil {
				return err
			}
			s.printf(" %8.3f", ms(rep.modify))
		}
		s.printf("\n")
	}
	return nil
}
