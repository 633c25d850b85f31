package trace

import (
	"context"
	"strings"
	"sync"
	"testing"
	"time"

	"prague/internal/metrics"
)

func TestNilAndDisabledFastPath(t *testing.T) {
	ctx := context.Background()

	var nilTracer *Tracer
	if nilTracer.Enabled() {
		t.Fatal("nil tracer reports enabled")
	}
	nilTracer.SetEnabled(true) // must not panic
	nilTracer.SetSlowThreshold(time.Second)
	if got := nilTracer.SlowSpans(); got != nil {
		t.Fatalf("nil tracer SlowSpans = %v, want nil", got)
	}
	cctx, sp := nilTracer.StartRoot(ctx, KindRun)
	if cctx != ctx || sp != nil {
		t.Fatal("nil tracer StartRoot must return ctx unchanged and a nil span")
	}

	tr := New(Options{}) // disabled
	cctx, sp = tr.StartRoot(ctx, KindRun)
	if cctx != ctx || sp != nil {
		t.Fatal("disabled tracer StartRoot must return ctx unchanged and a nil span")
	}

	// Every method on a nil *Span is a no-op.
	sp.SetAttr("k", "v")
	sp.Add("n", 1)
	sp.Record(KindCanonical, time.Millisecond, "codes", 3)
	if c := sp.Child(KindSpigBuild); c != nil {
		t.Fatal("nil span Child must be nil")
	}
	sp.End()
	if sp.Data() != nil {
		t.Fatal("nil span Data must be nil")
	}
	if got := SpanFromContext(ctx); got != nil {
		t.Fatalf("SpanFromContext on bare ctx = %v, want nil", got)
	}
	if cctx, c := StartChild(ctx, KindStepEval); cctx != ctx || c != nil {
		t.Fatal("StartChild without a span must return ctx unchanged and nil")
	}
}

func TestSpanTreeStructure(t *testing.T) {
	tr := New(Options{Enabled: true})
	ctx, root := tr.StartRoot(context.Background(), KindAddEdge)
	if root == nil {
		t.Fatal("enabled tracer returned a nil root span")
	}
	if got := SpanFromContext(ctx); got != root {
		t.Fatal("StartRoot context does not carry the root span")
	}
	root.SetAttr("session", "s1")

	cctx, build := StartChild(ctx, KindSpigBuild)
	if build == nil {
		t.Fatal("StartChild returned nil under an enabled root")
	}
	if got := SpanFromContext(cctx); got != build {
		t.Fatal("StartChild context does not carry the child span")
	}
	build.Record(KindCanonical, 2*time.Millisecond, "codes", 5)
	build.End()

	eval := root.Child(KindStepEval)
	fetch := eval.Child(KindCandFetch)
	fetch.Add("hit", 1)
	fetch.End()
	eval.End()
	root.End()

	d := root.Data()
	if d.Kind != "add_edge" {
		t.Fatalf("root kind = %q, want add_edge", d.Kind)
	}
	if d.Attrs["session"] != "s1" {
		t.Fatalf("root attrs = %v", d.Attrs)
	}
	if n := d.NumSpans(); n != 5 {
		t.Fatalf("tree size = %d, want 5 (root, spig_build, canonical, step_eval, cand_fetch)", n)
	}
	if len(d.Children) != 2 {
		t.Fatalf("root children = %d, want 2", len(d.Children))
	}
	if d.Children[0].Kind != "spig_build" || d.Children[1].Kind != "step_eval" {
		t.Fatalf("children order = %q, %q", d.Children[0].Kind, d.Children[1].Kind)
	}
	canon := d.Children[0].Children[0]
	if canon.Kind != "canonical_code" || canon.Counts["codes"] != 5 {
		t.Fatalf("recorded canonical child = %+v", canon)
	}
	if canon.DurUS < 1900 {
		t.Fatalf("Record duration = %dus, want ≈2000", canon.DurUS)
	}
	if d.Children[1].Children[0].Counts["hit"] != 1 {
		t.Fatal("cand_fetch hit count lost")
	}
}

func TestEndIdempotentAndLateChildren(t *testing.T) {
	tr := New(Options{Enabled: true})
	_, root := tr.StartRoot(context.Background(), KindRun)
	c := root.Child(KindStepEval)
	root.End()
	root.End() // idempotent
	c.End()    // parent already ended: dropped by design
	if n := root.Data().NumSpans(); n != 1 {
		t.Fatalf("late child attached: tree size = %d, want 1", n)
	}
	if len(tr.SlowSpans()) != 1 {
		t.Fatal("double End admitted the root twice (or not at all)")
	}
}

func TestSpanBudgetAndChildCap(t *testing.T) {
	reg := metrics.NewRegistry()

	// Child cap: direct (attached) children beyond MaxChildren are dropped.
	tr := New(Options{Enabled: true, MaxChildren: 2, Registry: reg})
	_, root := tr.StartRoot(context.Background(), KindRun)
	for i := 0; i < 2; i++ {
		root.Child(KindVerifyCand).End()
	}
	if c := root.Child(KindVerifyCand); c != nil {
		t.Fatal("child over MaxChildren must be dropped")
	}
	root.End()
	if d := root.Data(); d.Dropped != 1 || len(d.Children) != 2 {
		t.Fatalf("tree = %d children, %d dropped; want 2, 1", len(d.Children), d.Dropped)
	}

	// Span budget: the whole tree is capped at MaxSpans.
	tr2 := New(Options{Enabled: true, MaxSpans: 3, Registry: reg})
	_, root2 := tr2.StartRoot(context.Background(), KindRun)
	a := root2.Child(KindStepEval)
	b := a.Child(KindCandFetch)
	if c := a.Child(KindCandFetch); c != nil {
		t.Fatal("span over MaxSpans budget must be dropped")
	}
	b.End()
	a.End()
	root2.End()
	if d := root2.Data(); d.Dropped != 1 || d.NumSpans() != 3 {
		t.Fatalf("tree size = %d, dropped = %d; want 3, 1", d.NumSpans(), d.Dropped)
	}
	if got := reg.Counter(metrics.CounterTraceDropped).Value(); got != 2 {
		t.Fatalf("trace_dropped_spans = %d, want 2", got)
	}
}

func TestJournalAdmissionEvictionAndThreshold(t *testing.T) {
	reg := metrics.NewRegistry()
	tr := New(Options{Enabled: true, JournalSize: 2, Registry: reg})

	// Synthesize roots with controlled durations by back-dating start.
	finish := func(d time.Duration) {
		_, sp := tr.StartRoot(context.Background(), KindRun)
		sp.start = time.Now().Add(-d)
		sp.End()
	}
	finish(10 * time.Millisecond)
	finish(30 * time.Millisecond)
	finish(20 * time.Millisecond) // evicts the 10ms tree
	finish(1 * time.Millisecond)  // faster than everything resident: rejected

	slow := tr.SlowSpans()
	if len(slow) != 2 {
		t.Fatalf("journal length = %d, want 2", len(slow))
	}
	if slow[0].DurUS < slow[1].DurUS {
		t.Fatal("SlowSpans not sorted slowest-first")
	}
	if slow[1].DurUS < 19000 {
		t.Fatalf("fastest resident = %dus, want the 20ms tree", slow[1].DurUS)
	}
	if got := reg.Counter(metrics.CounterTraceJournalLen).Value(); got != 2 {
		t.Fatalf("trace_journal_len = %d, want 2", got)
	}
	if got := reg.Counter(metrics.CounterTraceJournalEvicted).Value(); got != 1 {
		t.Fatalf("trace_journal_evictions = %d, want 1", got)
	}

	// Threshold: a fast action is not journaled at all.
	tr2 := New(Options{Enabled: true, SlowThreshold: time.Second})
	_, sp := tr2.StartRoot(context.Background(), KindAddEdge)
	sp.End()
	if len(tr2.SlowSpans()) != 0 {
		t.Fatal("sub-threshold root admitted into the slow journal")
	}
	tr2.SetSlowThreshold(0)
	_, sp = tr2.StartRoot(context.Background(), KindAddEdge)
	sp.End()
	if len(tr2.SlowSpans()) != 1 {
		t.Fatal("threshold-0 root not admitted after SetSlowThreshold")
	}
}

func TestPhaseHistogramsFed(t *testing.T) {
	reg := metrics.NewRegistry()
	tr := New(Options{Enabled: true, Registry: reg})
	_, root := tr.StartRoot(context.Background(), KindRun)
	root.Record(KindVerifyBatch, 3*time.Millisecond, "candidates", 7)
	root.End()

	snap := reg.Snapshot()
	if h, ok := snap.Histograms[metrics.HistPhasePrefix+"run"]; !ok || h.Count != 1 {
		t.Fatalf("phase_run histogram = %+v, ok=%v", h, ok)
	}
	h, ok := snap.Histograms[metrics.HistPhasePrefix+"verify_batch"]
	if !ok || h.Count != 1 {
		t.Fatalf("phase_verify_batch histogram = %+v, ok=%v", h, ok)
	}
	if h.SumMS < 2.5 {
		t.Fatalf("phase_verify_batch sum = %vms, want ≈3", h.SumMS)
	}
}

func TestConcurrentChildren(t *testing.T) {
	tr := New(Options{Enabled: true, MaxSpans: 10000, MaxChildren: 10000})
	_, root := tr.StartRoot(context.Background(), KindRun)
	var wg sync.WaitGroup
	for i := 0; i < 8; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for j := 0; j < 100; j++ {
				c := root.Child(KindVerifyCand)
				c.Add("kept", 1)
				c.End()
			}
		}()
	}
	wg.Wait()
	root.End()
	if n := len(root.Data().Children); n != 800 {
		t.Fatalf("children = %d, want 800", n)
	}
}

func TestBuildReport(t *testing.T) {
	if got := BuildReport(nil); got.Spans != 0 || got.Action != "" {
		t.Fatalf("BuildReport(nil) = %+v", got)
	}

	tr := New(Options{Enabled: true})
	_, root := tr.StartRoot(context.Background(), KindRun)
	vb := root.Child(KindVerifyBatch)
	vb.Add("candidates", 10)
	vb.Add("kept", 4)
	vb.End()
	cf := root.Child(KindCandFetch)
	cf.Add("miss", 1)
	cf.End()
	deg := root.Child(KindDegrade)
	deg.End()
	root.End()

	r := BuildReport(root.Data())
	if r.Action != "run" || r.Spans != 4 {
		t.Fatalf("report = %+v", r)
	}
	if r.CandidatesChecked != 10 || r.CandidatesKept != 4 || r.CandidatesPruned != 6 {
		t.Fatalf("candidate stats = %d/%d/%d", r.CandidatesChecked, r.CandidatesKept, r.CandidatesPruned)
	}
	if r.CacheMisses != 1 || r.CacheHits != 0 {
		t.Fatalf("cache stats = %+v", r)
	}
	if !r.Degraded {
		t.Fatal("degrade_similarity span did not mark the report degraded")
	}

	out := r.Render()
	for _, want := range []string{"run breakdown", "verify_batch", "candidates: 10 checked, 4 kept, 6 pruned", "degraded to similarity"} {
		if !strings.Contains(out, want) {
			t.Fatalf("Render output missing %q:\n%s", want, out)
		}
	}
}

func TestKindNames(t *testing.T) {
	seen := map[string]bool{}
	for k := Kind(0); k < numKinds; k++ {
		name := k.String()
		if name == "" || name == "unknown" {
			t.Fatalf("kind %d has no name", k)
		}
		if seen[name] {
			t.Fatalf("duplicate kind name %q", name)
		}
		seen[name] = true
	}
	if Kind(200).String() != "unknown" {
		t.Fatal("out-of-range kind must stringify as unknown")
	}
}
