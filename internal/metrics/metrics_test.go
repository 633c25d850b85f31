package metrics

import (
	"bytes"
	"encoding/json"
	"errors"
	"io"
	"math"
	"strings"
	"sync"
	"testing"
	"time"

	"prague/internal/raceflag"
)

func TestCounterConcurrent(t *testing.T) {
	r := NewRegistry()
	c := r.Counter("hits")
	var wg sync.WaitGroup
	for w := 0; w < 8; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < 1000; i++ {
				c.Inc()
			}
		}()
	}
	wg.Wait()
	if got := c.Value(); got != 8000 {
		t.Fatalf("counter = %d, want 8000", got)
	}
	c.Add(-8000)
	if got := c.Value(); got != 0 {
		t.Fatalf("counter after negative add = %d, want 0", got)
	}
	if r.Counter("hits") != c {
		t.Fatal("get-or-create returned a different counter")
	}
}

func TestHistogramBucketsAndQuantiles(t *testing.T) {
	var h Histogram
	// 90 fast observations, 10 slow ones: p50 must land in the fast
	// bucket, p95 in the slow one.
	for i := 0; i < 90; i++ {
		h.Observe(5 * time.Microsecond)
	}
	for i := 0; i < 10; i++ {
		h.Observe(50 * time.Millisecond)
	}
	s := h.snapshot()
	if s.Count != 100 {
		t.Fatalf("count = %d", s.Count)
	}
	if s.MaxMS != 50 {
		t.Fatalf("max = %vms, want 50ms", s.MaxMS)
	}
	if s.P50MS < 0.002 || s.P50MS > 0.005 {
		t.Fatalf("p50 = %vms, want within the (2µs, 5µs] bucket", s.P50MS)
	}
	if s.P95MS < 20 || s.P95MS > 50 {
		t.Fatalf("p95 = %vms, want within the (20ms, 50ms] bucket", s.P95MS)
	}
	if s.Buckets["5µs"] != 90 || s.Buckets["50ms"] != 10 {
		t.Fatalf("bucket counts = %v", s.Buckets)
	}
}

// TestHistogramObserveAllocBudget pins Observe, the one histogram every
// step and Run reports into, at zero allocations.
func TestHistogramObserveAllocBudget(t *testing.T) {
	if raceflag.Enabled {
		t.Skip("allocation budgets are not meaningful under -race")
	}
	var h Histogram
	d := time.Duration(0)
	if n := testing.AllocsPerRun(1000, func() {
		d = (d*7 + 13*time.Microsecond) % (20 * time.Second)
		h.Observe(d)
	}); n != 0 {
		t.Errorf("Observe allocates %.1f/op, budget 0", n)
	}
}

// TestCountsSubWindows checks that Counts taken apart subtract to what was
// observed in between: exact bucket counts and sum, a maximum within the
// top bucket, and quantiles from the delta alone.
func TestCountsSubWindows(t *testing.T) {
	var h Histogram
	for i := 0; i < 100; i++ {
		h.Observe(3 * time.Second) // before the window
	}
	old := h.Counts()
	for i := 0; i < 99; i++ {
		h.Observe(300 * time.Microsecond)
	}
	h.Observe(1500 * time.Microsecond)
	w := h.Counts().Sub(old)
	if w.N() != 100 || w.SumNS != int64(99*300*time.Microsecond+1500*time.Microsecond) {
		t.Fatalf("window n=%d sum=%d, want 100 observations of the window only", w.N(), w.SumNS)
	}
	// The all-time max (3s) lies outside the window: the window's max is
	// capped at its top bucket's bound, (1ms, 2ms].
	if w.MaxNS != int64(2*time.Millisecond) {
		t.Fatalf("window max = %v, want 2ms", time.Duration(w.MaxNS))
	}
	if p50 := w.Quantile(0.5); p50 <= 200*time.Microsecond || p50 > 500*time.Microsecond {
		t.Fatalf("window p50 = %v, want within (200µs, 500µs]", p50)
	}
	if empty := h.Counts().Sub(h.Counts()); empty.N() != 0 || empty.MaxNS != 0 || empty.Quantile(0.99) != 0 {
		t.Fatalf("empty window = %+v", empty)
	}
}

func TestHistogramConcurrent(t *testing.T) {
	r := NewRegistry()
	var wg sync.WaitGroup
	for w := 0; w < 8; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			h := r.Histogram("lat")
			for i := 0; i < 500; i++ {
				h.Observe(time.Duration(w+1) * time.Millisecond)
			}
		}(w)
	}
	wg.Wait()
	if got := r.Histogram("lat").Count(); got != 4000 {
		t.Fatalf("count = %d, want 4000", got)
	}
}

func TestSnapshotJSONRoundTrip(t *testing.T) {
	r := NewRegistry()
	r.Counter(CounterStepsEvaluated).Add(7)
	r.Histogram(HistSRT).Observe(3 * time.Millisecond)

	var buf bytes.Buffer
	if err := r.Snapshot().WriteJSON(&buf); err != nil {
		t.Fatal(err)
	}
	var back Snapshot
	if err := json.Unmarshal(buf.Bytes(), &back); err != nil {
		t.Fatalf("snapshot is not valid JSON: %v", err)
	}
	if back.Counters[CounterStepsEvaluated] != 7 {
		t.Fatalf("counters after round trip: %v", back.Counters)
	}
	if back.Histograms[HistSRT].Count != 1 {
		t.Fatalf("histograms after round trip: %v", back.Histograms)
	}
}

// failWriter fails after n bytes, exercising WriteJSON's write-error path.
type failWriter struct{ n int }

func (w *failWriter) Write(p []byte) (int, error) {
	if len(p) > w.n {
		return w.n, errors.New("disk full")
	}
	w.n -= len(p)
	return len(p), nil
}

func TestWriteJSONErrorPaths(t *testing.T) {
	// Marshal failure: JSON cannot encode NaN. A histogram can't produce one,
	// but the snapshot type is exported and WriteJSON must wrap the error
	// rather than panic or write partial output.
	bad := Snapshot{
		Counters:   map[string]int64{"x": 1},
		Histograms: map[string]HistogramSnapshot{"h": {Count: 1, MeanMS: math.NaN()}},
	}
	var buf bytes.Buffer
	err := bad.WriteJSON(&buf)
	if err == nil {
		t.Fatal("marshaling NaN must fail")
	}
	if !strings.Contains(err.Error(), "metrics: marshal snapshot") {
		t.Fatalf("marshal error not wrapped: %v", err)
	}
	if buf.Len() != 0 {
		t.Fatalf("partial output written on marshal failure: %q", buf.String())
	}

	// Writer failure propagates.
	r := NewRegistry()
	r.Counter(CounterRuns).Inc()
	if err := r.Snapshot().WriteJSON(&failWriter{n: 10}); err == nil {
		t.Fatal("failing writer must surface its error")
	}
}

// TestSnapshotDuringLoad hammers Snapshot while Observe runs concurrently:
// under -race this catches unsynchronized reads, and the consistency checks
// catch torn snapshots where the quantile rank (derived from a separately
// loaded count) exceeds the captured bucket distribution.
func TestSnapshotDuringLoad(t *testing.T) {
	r := NewRegistry()
	h := r.Histogram(HistSRT)
	c := r.Counter(CounterRuns)
	stop := make(chan struct{})
	var wg sync.WaitGroup
	for w := 0; w < 4; w++ {
		wg.Add(1)
		go func(seed int) {
			defer wg.Done()
			d := time.Duration(seed+1) * 50 * time.Microsecond
			for {
				select {
				case <-stop:
					return
				default:
				}
				h.Observe(d)
				c.Inc()
			}
		}(w)
	}
	deadline := time.Now().Add(200 * time.Millisecond)
	for time.Now().Before(deadline) {
		s := r.Snapshot()
		hs := s.Histograms[HistSRT]
		var bucketSum int64
		for _, n := range hs.Buckets {
			bucketSum += n
		}
		if hs.Count != bucketSum {
			t.Fatalf("torn snapshot: count %d != bucket sum %d", hs.Count, bucketSum)
		}
		if hs.Count > 0 && (hs.P95MS < 0 || math.IsNaN(hs.P95MS) || math.IsInf(hs.P95MS, 0)) {
			t.Fatalf("quantile escaped the captured distribution: p95=%v count=%d", hs.P95MS, hs.Count)
		}
		if err := s.WriteJSON(io.Discard); err != nil {
			t.Fatalf("snapshot not marshalable under load: %v", err)
		}
	}
	close(stop)
	wg.Wait()
}
