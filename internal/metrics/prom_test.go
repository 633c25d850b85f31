package metrics

import (
	"math"
	"strings"
	"testing"
	"time"
)

func TestPromNameSanitize(t *testing.T) {
	cases := map[string]string{
		"actions_total":     "prague_actions_total",
		"phase_spig-build":  "prague_phase_spig_build",
		"weird.chars here!": "prague_weird_chars_here_",
		"phase_µbuild":      "prague_phase__build",
	}
	for in, want := range cases {
		if got := promName(in); got != want {
			t.Errorf("promName(%q) = %q, want %q", in, got, want)
		}
	}
}

// TestPromBucketBound parses every bucket label a histogram can emit: each
// must come back as a finite bound in seconds, strictly ascending, ending in
// +inf, so the le series stay parseable and ordered.
func TestPromBucketBound(t *testing.T) {
	prev := 0.0
	for i := 0; i < numBuckets; i++ {
		label := bucketLabel(i)
		v, err := promBucketBound(label)
		if err != nil {
			t.Fatalf("bucket %d label %q: %v", i, label, err)
		}
		if v <= prev {
			t.Fatalf("bucket %d label %q = %vs, not above %vs", i, label, v, prev)
		}
		prev = v
	}
	if !math.IsInf(prev, 1) {
		t.Fatalf("last bucket bound = %v, want +inf", prev)
	}
	for label, want := range map[string]float64{"2µs": 0.000002, "100µs": 0.0001, "5s": 5, "10s": 10} {
		if v, err := promBucketBound(label); err != nil || v != want {
			t.Fatalf("%s bound = %v, %v; want %v", label, v, err, want)
		}
	}
	if _, err := promBucketBound("nonsense"); err == nil {
		t.Fatal("garbage label parsed")
	}
}

func TestWritePrometheusExposition(t *testing.T) {
	reg := NewRegistry()
	reg.Counter("actions_total").Add(7)
	reg.Counter("sessions_active").Add(3)
	h := reg.Histogram("action")
	h.Observe(50 * time.Microsecond) // 50µs bucket
	h.Observe(50 * time.Microsecond)
	h.Observe(5 * time.Millisecond) // 5ms bucket
	h.Observe(time.Minute)          // overflow (+inf) bucket

	var b strings.Builder
	if err := reg.Snapshot().WritePrometheus(&b); err != nil {
		t.Fatal(err)
	}
	out := b.String()

	for _, want := range []string{
		"# TYPE prague_actions_total gauge\nprague_actions_total 7\n",
		"# TYPE prague_sessions_active gauge\nprague_sessions_active 3\n",
		"# TYPE prague_action_seconds histogram\n",
		// Buckets must be cumulative in le order and expressed in seconds.
		`prague_action_seconds_bucket{le="5e-05"} 2`,
		`prague_action_seconds_bucket{le="0.005"} 3`,
		`prague_action_seconds_bucket{le="+Inf"} 4`,
		"prague_action_seconds_count 4\n",
	} {
		if !strings.Contains(out, want) {
			t.Errorf("exposition missing %q\n---\n%s", want, out)
		}
	}
	// _sum is in seconds: 2*50µs + 5ms + 60s ≈ 60.0051s.
	if !strings.Contains(out, "prague_action_seconds_sum 60.0051") {
		t.Errorf("sum not in seconds:\n%s", out)
	}
	// Counters come before histograms, sorted; spot-check ordering.
	if strings.Index(out, "prague_actions_total") > strings.Index(out, "prague_sessions_active") {
		t.Error("counters not in sorted order")
	}
	if strings.Index(out, "prague_sessions_active") > strings.Index(out, "prague_action_seconds") {
		t.Error("histograms emitted before counters")
	}
}

func TestWritePrometheusCumulativeWithInfOnly(t *testing.T) {
	// A histogram whose only populated bucket is the overflow: the +Inf
	// bucket must not be synthesized twice.
	reg := NewRegistry()
	reg.Histogram("slow").Observe(time.Hour)
	var b strings.Builder
	if err := reg.Snapshot().WritePrometheus(&b); err != nil {
		t.Fatal(err)
	}
	if got := strings.Count(b.String(), `le="+Inf"`); got != 1 {
		t.Fatalf("+Inf bucket emitted %d times:\n%s", got, b.String())
	}
}

func TestWritePrometheusEmptySnapshot(t *testing.T) {
	var b strings.Builder
	if err := NewRegistry().Snapshot().WritePrometheus(&b); err != nil {
		t.Fatal(err)
	}
	if b.Len() != 0 {
		t.Fatalf("empty registry produced output:\n%s", b.String())
	}
}
