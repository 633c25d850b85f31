package trace

import (
	"fmt"
	"sort"
	"strings"
	"time"
)

// PhaseStat aggregates all spans of one kind inside a tree.
type PhaseStat struct {
	Phase string        `json:"phase"`
	Count int64         `json:"count"`
	Total time.Duration `json:"total_ns"`
	Max   time.Duration `json:"max_ns"`
}

// RunReport is the per-action breakdown the paper's latency story calls
// for: where the SRT (or a GUI-latency window) went, phase by phase, plus
// the candidate and cache effectiveness counters extracted from the span
// tree. Build one with BuildReport.
type RunReport struct {
	Action   string        `json:"action"`
	Duration time.Duration `json:"duration_ns"`
	Spans    int           `json:"spans"`
	Dropped  int64         `json:"dropped,omitempty"`

	Phases []PhaseStat `json:"phases"` // sorted by Total descending

	// Verification effectiveness (from verify_batch spans).
	CandidatesChecked int64 `json:"candidates_checked"`
	CandidatesKept    int64 `json:"candidates_kept"`
	CandidatesPruned  int64 `json:"candidates_pruned"`

	// Shared candidate-cache effectiveness (from cand_fetch spans).
	CacheHits      int64 `json:"cache_hits"`
	CacheMisses    int64 `json:"cache_misses"`
	CacheCoalesced int64 `json:"cache_coalesced"`

	// Degraded reports a transparent containment→similarity fallback.
	Degraded bool `json:"degraded,omitempty"`
}

// BuildReport aggregates a finished span tree into a RunReport. A nil tree
// yields a zero report.
func BuildReport(root *SpanData) RunReport {
	r := RunReport{}
	if root == nil {
		return r
	}
	r.Action = root.Kind
	r.Duration = time.Duration(root.DurUS) * time.Microsecond
	r.Dropped = root.Dropped
	byKind := map[string]*PhaseStat{}
	root.Walk(func(s *SpanData) {
		r.Spans++
		ps := byKind[s.Kind]
		if ps == nil {
			ps = &PhaseStat{Phase: s.Kind}
			byKind[s.Kind] = ps
		}
		d := time.Duration(s.DurUS) * time.Microsecond
		ps.Count++
		ps.Total += d
		if d > ps.Max {
			ps.Max = d
		}
		switch s.Kind {
		case KindVerifyBatch.String():
			r.CandidatesChecked += s.Counts["candidates"]
			r.CandidatesKept += s.Counts["kept"]
		case KindCandFetch.String():
			r.CacheHits += s.Counts["hit"]
			r.CacheMisses += s.Counts["miss"]
			r.CacheCoalesced += s.Counts["coalesced"]
		case KindDegrade.String():
			r.Degraded = true
		}
	})
	r.CandidatesPruned = r.CandidatesChecked - r.CandidatesKept
	for _, ps := range byKind {
		r.Phases = append(r.Phases, *ps)
	}
	sort.Slice(r.Phases, func(a, b int) bool {
		if r.Phases[a].Total != r.Phases[b].Total {
			return r.Phases[a].Total > r.Phases[b].Total
		}
		return r.Phases[a].Phase < r.Phases[b].Phase
	})
	return r
}

// Render formats the report as an aligned text table (praguecli's `trace`
// command).
func (r RunReport) Render() string {
	var b strings.Builder
	fmt.Fprintf(&b, "%s breakdown: %v total, %d spans", r.Action, r.Duration.Round(time.Microsecond), r.Spans)
	if r.Dropped > 0 {
		fmt.Fprintf(&b, " (%d dropped)", r.Dropped)
	}
	if r.Degraded {
		b.WriteString(", degraded to similarity")
	}
	b.WriteString("\n")
	fmt.Fprintf(&b, "  %-20s %7s %12s %12s %7s\n", "phase", "count", "total", "max", "%")
	for _, ps := range r.Phases {
		pct := 0.0
		if r.Duration > 0 {
			pct = 100 * float64(ps.Total) / float64(r.Duration)
		}
		fmt.Fprintf(&b, "  %-20s %7d %12v %12v %6.1f%%\n",
			ps.Phase, ps.Count, ps.Total.Round(time.Microsecond), ps.Max.Round(time.Microsecond), pct)
	}
	fmt.Fprintf(&b, "  candidates: %d checked, %d kept, %d pruned\n",
		r.CandidatesChecked, r.CandidatesKept, r.CandidatesPruned)
	fmt.Fprintf(&b, "  candcache: %d hits, %d misses, %d coalesced\n",
		r.CacheHits, r.CacheMisses, r.CacheCoalesced)
	return b.String()
}
