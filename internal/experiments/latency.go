package experiments

import (
	"time"

	"prague/internal/naivescan"
)

// edgeBudget is the GUI latency per drawn edge: the paper observes a user
// needs at least 2 s to draw one. It is never slept; each step's compute is
// read against it.
const edgeBudget = 2 * time.Second

// qft simulates the query formulation time of a session whose steps took
// the given compute: each step costs the larger of edgeBudget and its
// compute. It also counts the steps whose compute exceeded the budget (the
// paper's claim is that none does).
func qft(compute []time.Duration) (total time.Duration, violations int) {
	for _, c := range compute {
		if c > edgeBudget {
			violations++
			total += c
		} else {
			total += edgeBudget
		}
	}
	return total, violations
}

// stepCompute returns each formulation step's compute: SPIG construction
// plus candidate maintenance.
func (r *prgSession) stepCompute() []time.Duration {
	out := make([]time.Duration, len(r.steps))
	for i, st := range r.steps {
		out[i] = st.SpigTime + st.EvalTime
	}
	return out
}

// Latency reproduces the paper's headline feasibility claim (§VIII): the
// per-step computation of the blended paradigm must fit inside the latency
// the GUI offers (the paper measures ≥ 2 s per drawn edge). For every
// benchmark query it prints the worst per-step cost, the budget violations,
// the simulated query formulation time (QFT), the SRT, and — for scale — the
// cost of answering the same query with no index at all (a full VF2/MCCS
// scan).
func (s *Suite) Latency() error {
	if err := s.ensureAIDSQueries(); err != nil {
		return err
	}
	scan, err := naivescan.New(s.aidsDB, 1)
	if err != nil {
		return err
	}
	s.header("Latency budget: per-step compute vs the 2s GUI latency (AIDS-like)")
	s.printf("%-6s %12s %10s %10s %10s %12s %9s\n",
		"query", "max-step(ms)", "violations", "QFT(s)", "SRT(ms)", "scan SRT(ms)", "results")
	for _, wq := range s.aidsQueries {
		rep, err := runPrague(s.aidsDB, s.aidsIdx, wq, s.cfg.Sigma, false)
		if err != nil {
			return err
		}
		compute := rep.stepCompute()
		var maxStep time.Duration
		for _, d := range compute {
			maxStep = max(maxStep, d)
		}
		total, violations := qft(compute)
		_, scanTime := scan.Similarity(wq.Graph(), s.cfg.Sigma)
		s.printf("%-6s %12.3f %10d %10.1f %10.3f %12.3f %9d\n",
			wq.Name, ms(maxStep), violations, sec(total), ms(rep.srt), ms(scanTime), len(rep.results))
	}
	s.printf("(QFT is simulated: each step costs max(2s, step compute); scan = no-index full VF2/MCCS pass)\n")
	return nil
}
