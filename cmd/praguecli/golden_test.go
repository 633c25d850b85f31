package main

import (
	"bytes"
	"context"
	"flag"
	"os"
	"path/filepath"
	"regexp"
	"testing"
	"time"

	"prague/internal/trace"

	prague "prague"
)

var update = flag.Bool("update", false, "rewrite the golden files")

// Timing normalization: the structure of the inspection output (which
// phases, which counters, which columns) is deterministic for a fixed
// workload; the measured durations are not. Strip them before comparing.
var (
	durRe   = regexp.MustCompile(`\b\d+(\.\d+)?(ns|µs|us|ms|h)\b|\b\d+(\.\d+)?m?s\b`)
	floatRe = regexp.MustCompile(`\b\d+\.\d+\b`)
	// A histogram whose samples all read zero prints its timings as a bare
	// 0, which floatRe leaves alone; the field names say they are timings.
	msFieldRe = regexp.MustCompile(`("(?:sum|mean|max|p\d+)_ms": )[-+.eE0-9]+`)
	bucketsRe = regexp.MustCompile(`(?s)"buckets": \{[^}]*\}`)
	spacesRe  = regexp.MustCompile(` {2,}`)
)

func normalize(b []byte) []byte {
	// Which latency buckets fill up is as timing-dependent as the latencies
	// themselves; only the histogram's presence and count are structural.
	b = bucketsRe.ReplaceAll(b, []byte(`"buckets": <elided>`))
	b = msFieldRe.ReplaceAll(b, []byte("${1}<f>"))
	b = durRe.ReplaceAll(b, []byte("<dur>"))
	b = floatRe.ReplaceAll(b, []byte("<f>"))
	// Column padding widths follow the length of the duration strings they
	// held, so alignment is as timing-dependent as the numbers themselves.
	b = spacesRe.ReplaceAll(b, []byte(" "))
	return b
}

func checkGolden(t *testing.T, name string, got []byte) {
	t.Helper()
	got = normalize(got)
	path := filepath.Join("testdata", name)
	if *update {
		if err := os.MkdirAll("testdata", 0o755); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(path, got, 0o644); err != nil {
			t.Fatal(err)
		}
		return
	}
	want, err := os.ReadFile(path)
	if err != nil {
		t.Fatalf("missing golden file (run with -update to create): %v", err)
	}
	if !bytes.Equal(got, want) {
		t.Errorf("%s: output structure diverged from golden file\n--- got ---\n%s\n--- want ---\n%s", name, got, want)
	}
}

// newStore wraps db and ix in a monolithic store.
func newStore(t *testing.T, db *prague.Database, ix *prague.Indexes) prague.GraphStore {
	t.Helper()
	st, err := prague.NewStore(db, ix, 1)
	if err != nil {
		t.Fatal(err)
	}
	return st
}

// goldenSession runs a fixed workload (three anchored edges, one run) on a
// tiny generated database and returns the service and session to inspect.
func goldenSession(t *testing.T) (*prague.Service, *prague.ManagedSession) {
	t.Helper()
	db, err := prague.GenerateMolecules(40, 42)
	if err != nil {
		t.Fatal(err)
	}
	ix, err := prague.BuildIndexes(db, prague.IndexOptions{Alpha: 0.1, MaxFragmentSize: 4})
	if err != nil {
		t.Fatal(err)
	}
	svc, err := prague.NewService(newStore(t, db, ix),
		prague.WithSigma(2),
		prague.WithMetrics(prague.NewMetrics()),
		prague.WithTracing(true),
	)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { svc.Close() })
	ctx := context.Background()
	ss, err := svc.Create(ctx)
	if err != nil {
		t.Fatal(err)
	}
	a, _ := ss.AddNode("C")
	b, _ := ss.AddNode("C")
	c, _ := ss.AddNode("C")
	for _, pair := range [][2]int{{a, b}, {b, c}, {c, a}} {
		if _, err := ss.AddEdge(ctx, pair[0], pair[1]); err != nil {
			t.Fatal(err)
		}
	}
	if _, err := ss.Run(ctx); err != nil {
		t.Fatal(err)
	}
	return svc, ss
}

// TestMetricsGolden locks the shape of the `metrics` command: the JSON
// snapshot keys and deterministic counter values, plus the phase breakdown
// table, with all timings normalized.
func TestMetricsGolden(t *testing.T) {
	svc, _ := goldenSession(t)
	var buf bytes.Buffer
	if err := renderMetrics(&buf, svc.Snapshot()); err != nil {
		t.Fatal(err)
	}
	checkGolden(t, "metrics.golden", buf.Bytes())
}

// TestSLOGolden locks the shape of the `slo` command: the rolling-window
// tables, target/burn lines, and rate line, with all timings normalized.
func TestSLOGolden(t *testing.T) {
	db, err := prague.GenerateMolecules(40, 42)
	if err != nil {
		t.Fatal(err)
	}
	ix, err := prague.BuildIndexes(db, prague.IndexOptions{Alpha: 0.1, MaxFragmentSize: 4})
	if err != nil {
		t.Fatal(err)
	}
	svc, err := prague.NewService(newStore(t, db, ix),
		prague.WithSigma(2),
		prague.WithMetrics(prague.NewMetrics()),
		prague.WithTracing(true),
		prague.WithSLO(time.Second, 0.5),
		prague.WithSLOWindow(time.Minute),
	)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { svc.Close() })
	ctx := context.Background()
	ss, err := svc.Create(ctx)
	if err != nil {
		t.Fatal(err)
	}
	a, _ := ss.AddNode("C")
	b, _ := ss.AddNode("C")
	c, _ := ss.AddNode("C")
	for _, pair := range [][2]int{{a, b}, {b, c}, {c, a}} {
		if _, err := ss.AddEdge(ctx, pair[0], pair[1]); err != nil {
			t.Fatal(err)
		}
	}
	if _, err := ss.Run(ctx); err != nil {
		t.Fatal(err)
	}
	var buf bytes.Buffer
	renderSLO(&buf, svc.SLOReport())
	checkGolden(t, "slo.golden", buf.Bytes())

	// The disabled path renders a pointer at the flags, not an empty report.
	buf.Reset()
	renderSLO(&buf, prague.SLOReport{})
	if !bytes.Contains(buf.Bytes(), []byte("off")) {
		t.Fatalf("disabled SLO render = %q, want an 'off' notice", buf.String())
	}
}

// TestTraceGolden locks the shape of the `trace` command: the SRT breakdown
// of a traced run plus the slow journal. The journal entries are synthetic
// (fixed durations), so their order and content are fully deterministic.
func TestTraceGolden(t *testing.T) {
	_, ss := goldenSession(t)
	rep, err := ss.TraceReport()
	if err != nil {
		t.Fatal(err)
	}
	spans := []*trace.SpanData{
		{Kind: "run", DurUS: 12500},
		{Kind: "add_edge", DurUS: 900},
	}
	var buf bytes.Buffer
	renderTrace(&buf, rep, spans)
	checkGolden(t, "trace.golden", buf.Bytes())
}
