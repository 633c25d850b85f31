// Renderers for the inspection commands (`metrics`, `trace`). They write to
// an io.Writer rather than stdout so the golden-file tests can check the
// exact shape a user sees at the prompt.
package main

import (
	"fmt"
	"io"
	"sort"
	"strings"
	"time"

	"prague/internal/metrics"
	"prague/internal/trace"

	prague "prague"
)

// renderMetrics writes the raw JSON metrics snapshot followed by the
// per-phase latency table fed by trace spans.
func renderMetrics(w io.Writer, snap prague.MetricsSnapshot) error {
	if err := snap.WriteJSON(w); err != nil {
		return err
	}
	renderPhaseBreakdown(w, snap)
	return nil
}

// renderPhaseBreakdown renders the phase_* histograms (fed by trace spans)
// as a compact table after the raw JSON snapshot.
func renderPhaseBreakdown(w io.Writer, snap prague.MetricsSnapshot) {
	var names []string
	for name := range snap.Histograms {
		if strings.HasPrefix(name, metrics.HistPhasePrefix) {
			names = append(names, name)
		}
	}
	if len(names) == 0 {
		return
	}
	sort.Strings(names)
	fmt.Fprintln(w, "\nphase breakdown (from trace spans):")
	fmt.Fprintf(w, "  %-26s %8s %12s %10s %10s\n", "phase", "count", "total(ms)", "p95(ms)", "max(ms)")
	for _, name := range names {
		h := snap.Histograms[name]
		fmt.Fprintf(w, "  %-26s %8d %12.3f %10.3f %10.3f\n",
			strings.TrimPrefix(name, metrics.HistPhasePrefix), h.Count, h.SumMS, h.P95MS, h.MaxMS)
	}
}

// renderSLO writes the rolling-window SLO report: per-phase and per-stage
// latency windows, event rates, and the declared objectives with their burn
// rates.
func renderSLO(w io.Writer, rep prague.SLOReport) {
	if !rep.Enabled {
		fmt.Fprintln(w, "SLO telemetry is off — start with -slo (a p99 SRT target)")
		return
	}
	fmt.Fprintf(w, "rolling window: %dms\n", rep.WindowMS)
	if rep.P99TargetUS > 0 || rep.MaxShedRate > 0 {
		fmt.Fprintf(w, "targets: p99 SRT %s  max shed rate %.3f\n",
			(time.Duration(rep.P99TargetUS) * time.Microsecond).String(), rep.MaxShedRate)
		fmt.Fprintf(w, "burn:    p99 %.2f  shed %.2f  violating=%v  violations=%d (%.1fs)\n",
			rep.BurnP99, rep.BurnShed, rep.Violating, rep.Violations, rep.ViolationSec)
	}
	renderDistTable(w, "phases", rep.Phases)
	renderDistTable(w, "stages", rep.Stages)
	if len(rep.Rates) > 0 {
		names := sortedKeys(rep.Rates)
		fmt.Fprint(w, "rates:")
		for _, name := range names {
			r := rep.Rates[name]
			fmt.Fprintf(w, "  %s %d (%.1f/s)", name, r.Count, r.PerSec)
		}
		fmt.Fprintf(w, "  shed rate %.3f\n", rep.ShedRate)
	}
}

// renderDistTable renders one set of rolling-window distributions (phases or
// stages), skipping windows that saw no traffic.
func renderDistTable(w io.Writer, title string, dists map[string]prague.SLODist) {
	names := make([]string, 0, len(dists))
	for name, d := range dists {
		if d.Count > 0 {
			names = append(names, name)
		}
	}
	if len(names) == 0 {
		return
	}
	sort.Strings(names)
	fmt.Fprintf(w, "%s:\n", title)
	fmt.Fprintf(w, "  %-14s %8s %10s %10s %10s %10s\n", "window", "count", "p50(ms)", "p95(ms)", "p99(ms)", "max(ms)")
	for _, name := range names {
		d := dists[name]
		fmt.Fprintf(w, "  %-14s %8d %10.3f %10.3f %10.3f %10.3f\n",
			name, d.Count, float64(d.P50US)/1e3, float64(d.P95US)/1e3, float64(d.P99US)/1e3, float64(d.MaxUS)/1e3)
	}
}

func sortedKeys[V any](m map[string]V) []string {
	names := make([]string, 0, len(m))
	for name := range m {
		names = append(names, name)
	}
	sort.Strings(names)
	return names
}

// renderTrace writes the SRT breakdown of the last run and the slowest
// recorded actions (the slow journal).
func renderTrace(w io.Writer, rep prague.TraceReport, spans []*trace.SpanData) {
	fmt.Fprint(w, rep.Render())
	renderSlowJournal(w, spans)
}

// renderSlowJournal summarizes the slowest recorded actions.
func renderSlowJournal(w io.Writer, spans []*trace.SpanData) {
	if len(spans) == 0 {
		return
	}
	fmt.Fprintln(w, "slowest actions (slow journal):")
	for i, sp := range spans {
		if i == 10 {
			fmt.Fprintf(w, "  ... and %d more\n", len(spans)-10)
			break
		}
		fmt.Fprintf(w, "  %-18s %10v  %d spans\n",
			sp.Kind, (time.Duration(sp.DurUS) * time.Microsecond).Round(time.Microsecond), sp.NumSpans())
	}
}
