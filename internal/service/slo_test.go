package service

import (
	"context"
	"errors"
	"io"
	"math/rand"
	"net/http"
	"strconv"
	"sync"
	"testing"
	"time"

	"prague/internal/clock"
	"prague/internal/metrics"
	"prague/internal/slo"
	"prague/internal/trace"
)

// newSLOFixture builds a service with SLO telemetry on a fake clock. The
// 10 s window derives a 1.25 s tick, past anything the tests advance, so the
// background loop never races the manual sloTick calls below.
func newSLOFixture(t *testing.T) (*Service, *clock.Fake) {
	t.Helper()
	db, idx := smallFixture(t)
	fake := clock.NewFake(time.Unix(1700000000, 0))
	svc, err := New(db, idx,
		WithSessionTTL(0),
		WithMetrics(metrics.NewRegistry()),
		WithClock(fake),
		WithVerifyWorkers(2),
		WithTracing(true),
		WithSLO(10*time.Millisecond, 0.5),
		WithSLOWindow(10*time.Second),
	)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(svc.Close)
	return svc, fake
}

// feed injects one synthetic telemetry round: n SRT observations of dur plus
// admitted/shed rate events.
func feed(svc *Service, n int, dur time.Duration, admitted, shed int64) {
	for i := 0; i < n; i++ {
		svc.col.ObservePhase(slo.PhaseSRT, dur)
	}
	svc.col.AddRate(slo.RateAdmitted, admitted)
	svc.col.AddRate(slo.RateShed, shed)
}

// TestSLOReportWindowsAndRates checks that what the serving path feeds the
// windows comes back out of SLOReport: the SRT window, the shed rate, and
// the sampled worker-utilization source.
func TestSLOReportWindowsAndRates(t *testing.T) {
	svc, _ := newSLOFixture(t)
	feed(svc, 50, 2*time.Millisecond, 50, 25)
	svc.sloTick()
	rep := svc.SLOReport()
	if !rep.Enabled {
		t.Fatal("report disabled with SLO telemetry on")
	}
	if d := rep.Phases[slo.PhaseSRT.String()]; d.Count != 50 {
		t.Fatalf("report SRT window = %+v", d)
	}
	if rep.ShedRate != float64(25)/float64(75) {
		t.Fatalf("report shed rate = %v", rep.ShedRate)
	}
	if _, ok := rep.Sources[srcWorkerUtil]; !ok {
		t.Fatalf("report sources = %v, want %s", rep.Sources, srcWorkerUtil)
	}
}

func TestSLOReportDisabledByDefault(t *testing.T) {
	db, idx := smallFixture(t)
	svc, err := New(db, idx, WithSessionTTL(0), WithMetrics(metrics.NewRegistry()))
	if err != nil {
		t.Fatal(err)
	}
	defer svc.Close()
	if rep := svc.SLOReport(); rep.Enabled {
		t.Fatalf("SLO report enabled without any SLO option: %+v", rep)
	}
	if svc.col != nil || svc.slotrack != nil {
		t.Fatal("SLO telemetry constructed without any SLO option")
	}
}

// TestViolationAccounting drives a sustained breach through the service
// tracker and checks the violation counters and journal spans.
func TestViolationAccounting(t *testing.T) {
	svc, fake := newSLOFixture(t)
	for tick := 0; tick < 3; tick++ {
		feed(svc, 100, 50*time.Millisecond, 100, 0)
		svc.sloTick()
		fake.Advance(100 * time.Millisecond)
	}
	rep := svc.SLOReport()
	if !rep.Violating || rep.Violations != 1 {
		t.Fatalf("sustained breach: %+v", rep)
	}
	if rep.ViolationSec <= 0 {
		t.Fatalf("no violation time accumulated: %+v", rep)
	}
	if got := svc.Snapshot().Counters[metrics.CounterSLOViolations]; got != 1 {
		t.Fatalf("slo_violations_total = %d", got)
	}
	found := false
	for _, sp := range svc.SlowSpans() {
		if sp.Kind == trace.KindSLOViolation.String() {
			found = true
		}
	}
	if !found {
		t.Fatal("no slo_violation span journaled")
	}
}

// TestRunSpanFilterAndEpochAttrs checks that every run span carries the
// engine's filter-chooser explanation and the store epoch the run was
// pinned to.
func TestRunSpanFilterAndEpochAttrs(t *testing.T) {
	db, idx := smallFixture(t)
	svc, err := New(db, idx, WithSessionTTL(0), WithMetrics(metrics.NewRegistry()), WithTracing(true))
	if err != nil {
		t.Fatal(err)
	}
	defer svc.Close()
	ss := tracedSession(t, svc)
	sp, err := ss.LastRunTrace()
	if err != nil {
		t.Fatal(err)
	}
	if sp.Attrs["filter"] == "" {
		t.Fatalf("run span has no filter explanation: %+v", sp.Attrs)
	}
	if got := sp.Attrs["epoch"]; got != "0" {
		t.Fatalf("run span epoch = %q, want \"0\"", got)
	}

	// After a mutation the next run pins the new epoch.
	if _, err := svc.InsertGraph(context.Background(), db[0].Clone()); err != nil {
		t.Fatal(err)
	}
	ss2 := tracedSession(t, svc)
	sp2, err := ss2.LastRunTrace()
	if err != nil {
		t.Fatal(err)
	}
	if got, _ := strconv.Atoi(sp2.Attrs["epoch"]); got != 1 {
		t.Fatalf("post-mutation run span epoch = %q, want \"1\"", sp2.Attrs["epoch"])
	}
}

// TestOpsEndpointsUnderLoad hammers every ops endpoint while sessions
// formulate, run, and the store mutates, and while the SLO tick loop runs
// on the real clock — the -race proof that the observability surface reads
// nothing unsynchronized from the serving path.
func TestOpsEndpointsUnderLoad(t *testing.T) {
	db, idx := smallFixture(t)
	svc, err := New(db, idx,
		WithSessionTTL(0),
		WithMetrics(metrics.NewRegistry()),
		WithTracing(true),
		WithOpsServer("127.0.0.1:0"),
		WithMaxInFlight(8),
		WithSLO(time.Second, 0.9),
		WithSLOWindow(100*time.Millisecond),
	)
	if err != nil {
		t.Fatal(err)
	}
	defer svc.Close()
	base := "http://" + svc.OpsAddr()

	stop := make(chan struct{})
	var workers sync.WaitGroup
	// The readers start once a session has completed one formulate+run, so
	// the ops surface is read while the serving path is demonstrably live.
	warmed := make(chan struct{})
	var warm sync.Once
	markWarm := func() { warm.Do(func() { close(warmed) }) }

	// Two session workers formulating and running; overloads are expected.
	for w := 0; w < 2; w++ {
		workers.Add(1)
		go func(seed int64) {
			defer workers.Done()
			defer markWarm()
			r := rand.New(rand.NewSource(seed))
			for {
				select {
				case <-stop:
					return
				default:
				}
				if err := formulateAndRun(context.Background(), svc, r); err != nil &&
					!errors.Is(err, ErrOverloaded) {
					t.Errorf("session worker: %v", err)
					return
				}
				markWarm()
			}
		}(int64(w) + 1)
	}

	// One mutator inserting and deleting graphs.
	workers.Add(1)
	go func() {
		defer workers.Done()
		ctx := context.Background()
		for i := 0; ; i++ {
			select {
			case <-stop:
				return
			default:
			}
			id, err := svc.InsertGraph(ctx, db[i%len(db)].Clone())
			if err != nil {
				if errors.Is(err, ErrOverloaded) {
					continue
				}
				t.Errorf("mutator insert: %v", err)
				return
			}
			if err := svc.DeleteGraph(ctx, id); err != nil && !errors.Is(err, ErrOverloaded) {
				t.Errorf("mutator delete: %v", err)
				return
			}
		}
	}()

	// Four readers hammering the ops surface.
	paths := []string{"/healthz", "/metrics", "/metrics?format=prom", "/slo", "/trace/slow"}
	client := &http.Client{Timeout: 5 * time.Second}
	var readers sync.WaitGroup
	for w := 0; w < 4; w++ {
		readers.Add(1)
		go func(w int) {
			defer readers.Done()
			<-warmed
			for i := 0; i < 50; i++ {
				resp, err := client.Get(base + paths[(w+i)%len(paths)])
				if err != nil {
					t.Errorf("ops reader: %v", err)
					return
				}
				if _, err := io.Copy(io.Discard, resp.Body); err != nil {
					t.Errorf("ops reader body: %v", err)
				}
				resp.Body.Close()
				if resp.StatusCode != http.StatusOK {
					t.Errorf("ops reader: %s = %d", paths[(w+i)%len(paths)], resp.StatusCode)
					return
				}
			}
		}(w)
	}

	// Stop the open-ended workers once every reader has finished its quota.
	readers.Wait()
	close(stop)
	workers.Wait()
}
