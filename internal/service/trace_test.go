package service

import (
	"context"
	"encoding/json"
	"errors"
	"io"
	"math/rand"
	"net/http"
	"testing"
	"time"

	"prague/internal/metrics"
	"prague/internal/trace"
)

// tracedSession formulates a short query in a fresh session and runs it.
func tracedSession(t *testing.T, svc *Service) *Session {
	t.Helper()
	ctx := context.Background()
	ss, err := svc.Create(ctx)
	if err != nil {
		t.Fatal(err)
	}
	a, _ := ss.AddNode("C")
	b, _ := ss.AddNode("C")
	c, _ := ss.AddNode("N")
	for _, e := range [][2]int{{a, b}, {b, c}} {
		out, err := ss.AddEdge(ctx, e[0], e[1])
		if err != nil {
			t.Fatal(err)
		}
		if out.NeedsChoice {
			if _, err := ss.ChooseSimilarity(ctx); err != nil {
				t.Fatal(err)
			}
		}
	}
	if _, err := ss.Run(ctx); err != nil {
		t.Fatal(err)
	}
	return ss
}

func TestServiceTraceReport(t *testing.T) {
	db, idx := smallFixture(t)
	reg := metrics.NewRegistry()
	svc, err := newMem(db, idx, WithSessionTTL(0), WithMetrics(reg), WithTracing(true))
	if err != nil {
		t.Fatal(err)
	}
	defer svc.Close()
	if svc.Tracer() == nil || !svc.Tracer().Enabled() {
		t.Fatal("WithTracing(true) did not enable the tracer")
	}

	ss, err := svc.Create(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	if _, err := ss.TraceReport(); !errors.Is(err, ErrNoTrace) {
		t.Fatalf("TraceReport before Run = %v, want ErrNoTrace", err)
	}
	if _, err := ss.LastRunTrace(); !errors.Is(err, ErrNoTrace) {
		t.Fatalf("LastRunTrace before Run = %v, want ErrNoTrace", err)
	}

	ss = tracedSession(t, svc)
	root, err := ss.LastRunTrace()
	if err != nil {
		t.Fatal(err)
	}
	if root.Kind != "run" {
		t.Fatalf("last-run root kind = %q, want run", root.Kind)
	}
	if root.Attrs["session"] != ss.ID() {
		t.Fatalf("root attrs = %v, want session=%s", root.Attrs, ss.ID())
	}
	rep, err := ss.TraceReport()
	if err != nil {
		t.Fatal(err)
	}
	if rep.Action != "run" || rep.Spans < 1 || rep.Duration <= 0 {
		t.Fatalf("report = %+v", rep)
	}

	// Formulation steps feed phase histograms even before Run.
	snap := reg.Snapshot()
	for _, name := range []string{"phase_add_edge", "phase_run", "phase_spig_build"} {
		if h, ok := snap.Histograms[name]; !ok || h.Count == 0 {
			t.Fatalf("histogram %s missing or empty (have %v)", name, snap.Histograms)
		}
	}

	// Every completed action lands in the (threshold-0) slow journal.
	if len(svc.SlowSpans()) == 0 {
		t.Fatal("slow journal empty after a traced session")
	}
}

func TestServiceTracingDisabled(t *testing.T) {
	db, idx := smallFixture(t)
	svc, err := newMem(db, idx, WithSessionTTL(0))
	if err != nil {
		t.Fatal(err)
	}
	defer svc.Close()
	if svc.Tracer() != nil {
		t.Fatal("tracing off must not build a tracer")
	}
	if got := svc.SlowSpans(); got != nil {
		t.Fatalf("SlowSpans without tracer = %v, want nil", got)
	}
	ss := tracedSession(t, svc)
	if _, err := ss.TraceReport(); !errors.Is(err, ErrNoTrace) {
		t.Fatalf("TraceReport without tracing = %v, want ErrNoTrace", err)
	}
}

func TestServiceSlowThresholdAndJournalSize(t *testing.T) {
	db, idx := smallFixture(t)
	svc, err := newMem(db, idx, WithSessionTTL(0),
		WithSlowThreshold(time.Hour), WithSlowJournalSize(4))
	if err != nil {
		t.Fatal(err)
	}
	defer svc.Close()
	if svc.Tracer() == nil {
		t.Fatal("WithSlowThreshold must imply tracing")
	}
	tracedSession(t, svc)
	if got := svc.SlowSpans(); len(got) != 0 {
		t.Fatalf("hour-threshold journal has %d entries", len(got))
	}
	svc.Tracer().SetSlowThreshold(0)
	tracedSession(t, svc)
	if got := svc.SlowSpans(); len(got) == 0 {
		t.Fatal("threshold-0 journal still empty")
	}
}

func TestServiceOpsServer(t *testing.T) {
	db, idx := smallFixture(t)
	svc, err := newMem(db, idx, WithSessionTTL(0),
		WithTracing(true), WithOpsServer("127.0.0.1:0"))
	if err != nil {
		t.Fatal(err)
	}
	addr := svc.OpsAddr()
	if addr == "" {
		t.Fatal("WithOpsServer did not report a bound address")
	}
	tracedSession(t, svc)

	resp, err := http.Get("http://" + addr + "/healthz")
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("/healthz = %d", resp.StatusCode)
	}

	resp, err = http.Get("http://" + addr + "/trace/slow")
	if err != nil {
		t.Fatal(err)
	}
	body, _ := io.ReadAll(resp.Body)
	resp.Body.Close()
	var spans []*trace.SpanData
	if err := json.Unmarshal(body, &spans); err != nil {
		t.Fatalf("/trace/slow: %v\n%s", err, body)
	}
	if len(spans) == 0 {
		t.Fatal("/trace/slow empty after a traced session")
	}

	svc.Close()
	client := http.Client{Timeout: 500 * time.Millisecond}
	if _, err := client.Get("http://" + addr + "/healthz"); err == nil {
		t.Fatal("ops server still serving after service Close")
	}
}

func TestTracedFleetRace(t *testing.T) {
	db, idx := smallFixture(t)
	svc, err := newMem(db, idx, WithSessionTTL(0), WithTracing(true))
	if err != nil {
		t.Fatal(err)
	}
	defer svc.Close()
	errc := make(chan error, 8)
	for i := 0; i < 8; i++ {
		go func(seed int64) {
			errc <- formulateAndRun(context.Background(), svc, rand.New(rand.NewSource(seed)))
		}(int64(i))
	}
	for i := 0; i < 8; i++ {
		if err := <-errc; err != nil {
			t.Fatal(err)
		}
	}
	if len(svc.SlowSpans()) == 0 {
		t.Fatal("no spans journaled by the traced fleet")
	}
}
