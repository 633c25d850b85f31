package fleetsim

import (
	"fmt"
	"math/rand"
	"reflect"
	"sync"
	"testing"
	"time"

	"prague/internal/graph"
	"prague/internal/index"
	"prague/internal/metrics"
	"prague/internal/mining"
	"prague/internal/service"
	"prague/internal/workload"
)

var (
	fixOnce sync.Once
	fixDB   []*graph.Graph
	fixIdx  *index.Set
	fixQs   []workload.Query
)

func fixture(tb testing.TB) ([]*graph.Graph, *index.Set, []workload.Query) {
	tb.Helper()
	fixOnce.Do(func() {
		r := rand.New(rand.NewSource(11))
		labels := []string{"C", "C", "C", "N", "O"}
		for i := 0; i < 120; i++ {
			nodes := 4 + r.Intn(5)
			g := graph.New(i)
			for v := 0; v < nodes; v++ {
				g.AddNode(labels[r.Intn(len(labels))])
			}
			for v := 1; v < nodes; v++ {
				g.MustAddEdge(v, r.Intn(v))
			}
			fixDB = append(fixDB, g)
		}
		res, err := mining.Mine(fixDB, mining.Options{MinSupportRatio: 0.3, MaxSize: 6})
		if err != nil {
			tb.Fatal(err)
		}
		fixIdx, err = index.Build(res, 0.3, 3)
		if err != nil {
			tb.Fatal(err)
		}
		var qerr error
		fixQs, qerr = workload.ContainmentQueries(fixDB, 4, []int{2, 3}, 7)
		if qerr != nil {
			tb.Fatal(qerr)
		}
	})
	return fixDB, fixIdx, fixQs
}

func newService(tb testing.TB, opts ...service.Option) *service.Service {
	tb.Helper()
	db, idx, _ := fixture(tb)
	base := []service.Option{
		service.WithSigma(2),
		service.WithMetrics(metrics.NewRegistry()),
		service.WithSessionTTL(0),
		service.WithVerifyWorkers(2),
	}
	svc, err := service.New(db, idx, append(base, opts...)...)
	if err != nil {
		tb.Fatal(err)
	}
	tb.Cleanup(svc.Close)
	return svc
}

// TestFleetDeterministicTraffic runs the same config twice against fresh
// services and requires identical realized query popularity and mutation
// counts — the per-worker seeded rand contract.
func TestFleetDeterministicTraffic(t *testing.T) {
	_, _, qs := fixture(t)
	cfg := Config{
		Sessions:         4,
		QueriesPerWorker: 12,
		Seed:             3,
		MutateEvery:      4,
		AbandonEvery:     5,
	}
	run := func() Result {
		res, err := Run(newService(t), fixDB, qs, cfg)
		if err != nil {
			t.Fatal(err)
		}
		return res
	}
	a, b := run(), run()
	if !reflect.DeepEqual(a.QueryCounts, b.QueryCounts) {
		t.Fatalf("query popularity diverged:\n%v\nvs\n%v", a.QueryCounts, b.QueryCounts)
	}
	if a.Mutations != b.Mutations || a.Queries != b.Queries {
		t.Fatalf("traffic diverged: %+v vs %+v", a, b)
	}
	var total int64
	for _, n := range a.QueryCounts {
		total += n
	}
	if want := int64(cfg.Sessions * cfg.QueriesPerWorker); total != want {
		t.Fatalf("issued %d queries, want %d", total, want)
	}
	if a.Queries == 0 || a.P99 <= 0 {
		t.Fatalf("no completed queries measured: %+v", a)
	}
	if a.Failures != 0 || b.Failures != 0 {
		t.Fatalf("mutating fleet recorded hard failures: %+v / %+v", a, b)
	}
}

// TestFleetZipfSkew checks the popularity distribution is actually skewed:
// the first query must dominate under a steep exponent.
func TestFleetZipfSkew(t *testing.T) {
	_, _, qs := fixture(t)
	res, err := Run(newService(t), nil, qs, Config{
		Sessions: 2, QueriesPerWorker: 50, Seed: 9, ZipfS: 2.5,
	})
	if err != nil {
		t.Fatal(err)
	}
	top := res.QueryCounts[qs[0].Name]
	var rest int64
	for name, n := range res.QueryCounts {
		if name != qs[0].Name {
			rest += n
		}
	}
	if top <= rest {
		t.Fatalf("zipf head %d not dominant over tail %d: %v", top, rest, res.QueryCounts)
	}
}

// TestFleetShedAccounting pressures a MaxInFlight(1) service with a big
// fleet and checks rejections are counted as shed (not failures) while the
// closed loop's backoff-retry still completes every budgeted query.
func TestFleetShedAccounting(t *testing.T) {
	svc := newService(t, service.WithMaxInFlight(1))
	_, _, qs := fixture(t)
	res, err := Run(svc, nil, qs, Config{Sessions: 8, QueriesPerWorker: 10, Seed: 1})
	if err != nil {
		t.Fatal(err)
	}
	if res.Failures != 0 {
		t.Fatalf("fleet recorded %d hard failures: %+v", res.Failures, res)
	}
	if res.Shed == 0 {
		t.Fatalf("MaxInFlight(1) under 8 workers shed nothing: %+v", res)
	}
	if got := res.ShedRate(); got <= 0 || got >= 1 {
		t.Fatalf("shed rate = %v, want in (0,1)", got)
	}
	// Backoff-retry means rejections don't consume budget: every worker
	// either completes all its queries or exhausts MaxRetries on one.
	if res.Queries < int64(8*10/2) || res.Queries > int64(8*10) {
		t.Fatalf("completed %d queries, want near the 80-query budget", res.Queries)
	}
}

// TestFleetRetryGivesUp bounds the retry loop: with MaxRetries 1 against a
// fully saturated service, a query abandoned after its retries must count
// as shed work without inflating the completion count past the budget.
func TestFleetRetryGivesUp(t *testing.T) {
	svc := newService(t, service.WithMaxInFlight(1))
	_, _, qs := fixture(t)
	res, err := Run(svc, nil, qs, Config{
		Sessions: 8, QueriesPerWorker: 6, Seed: 2, MaxRetries: 1,
	})
	if err != nil {
		t.Fatal(err)
	}
	if res.Failures != 0 {
		t.Fatalf("fleet recorded %d hard failures: %+v", res.Failures, res)
	}
	if res.Queries > int64(8*6) {
		t.Fatalf("completed %d queries, budget is %d", res.Queries, 8*6)
	}
	if res.Shed == 0 {
		t.Fatalf("saturated fleet with MaxRetries=1 shed nothing: %+v", res)
	}
}

// TestFleetOpenLoop fires the budget on the arrival schedule; every attempt
// must still be accounted exactly once.
func TestFleetOpenLoop(t *testing.T) {
	svc := newService(t, service.WithMaxInFlight(2))
	_, _, qs := fixture(t)
	res, err := Run(svc, nil, qs, Config{
		Sessions: 4, QueriesPerWorker: 8, Seed: 5, OpenLoop: true,
	})
	if err != nil {
		t.Fatal(err)
	}
	if got := res.Queries + res.Shed + res.Failures; got != 32 {
		t.Fatalf("open-loop attempts = %d, want 32", got)
	}
	if res.Failures != 0 {
		t.Fatalf("open-loop hard failures: %+v", res)
	}
}

func TestFleetThinkTimeKeepsTraffic(t *testing.T) {
	_, _, qs := fixture(t)
	// The think-time draw is consumed whether or not pausing is enabled, so
	// the same seed must pick the same queries with and without pauses.
	with, err := Run(newService(t), nil, qs, Config{
		Sessions: 2, QueriesPerWorker: 6, Seed: 21, ThinkTime: 100 * time.Microsecond,
	})
	if err != nil {
		t.Fatal(err)
	}
	without, err := Run(newService(t), nil, qs, Config{
		Sessions: 2, QueriesPerWorker: 6, Seed: 21,
	})
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(with.QueryCounts, without.QueryCounts) {
		t.Fatalf("think time changed query selection:\n%v\nvs\n%v",
			with.QueryCounts, without.QueryCounts)
	}
}

func TestFleetConfigValidation(t *testing.T) {
	svc := newService(t)
	if _, err := Run(svc, nil, nil, Config{}); err == nil {
		t.Fatal("empty query list accepted")
	}
	if _, err := Run(svc, nil, fixQs, Config{MutateEvery: 2}); err == nil {
		t.Fatal("MutateEvery without a mutation pool accepted")
	}
}

func TestFleetAbandonedSessionsChurn(t *testing.T) {
	svc := newService(t)
	_, _, qs := fixture(t)
	res, err := Run(svc, nil, qs, Config{
		Sessions: 2, QueriesPerWorker: 6, Seed: 13, AbandonEvery: 2,
	})
	if err != nil {
		t.Fatal(err)
	}
	if res.Queries == 0 {
		t.Fatalf("no queries completed: %+v", res)
	}
	// Every 2nd session per worker was abandoned: 3 each, 6 total resident.
	if got := svc.Len(); got != 6 {
		t.Fatalf("abandoned sessions resident = %d, want 6", got)
	}
}

func BenchmarkFleetClosedLoop(b *testing.B) {
	db, idx, qs := fixture(b)
	for _, sessions := range []int{2, 8} {
		b.Run(fmt.Sprintf("sessions=%d", sessions), func(b *testing.B) {
			svc, err := service.New(db, idx,
				service.WithSigma(2),
				service.WithMetrics(metrics.NewRegistry()),
				service.WithSessionTTL(0),
				service.WithVerifyWorkers(2))
			if err != nil {
				b.Fatal(err)
			}
			defer svc.Close()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				if _, err := Run(svc, nil, qs, Config{
					Sessions: sessions, QueriesPerWorker: 4, Seed: int64(i),
				}); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}
