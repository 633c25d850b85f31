// Fleet benchmark: the closed-loop fleet simulator replayed against a
// statically configured service and an adaptive one.
package prague_test

import (
	"fmt"
	"testing"
	"time"

	"prague/internal/fleetsim"
	"prague/internal/metrics"
	"prague/internal/service"
	"prague/internal/workload"
)

// fleetQueries is the mixed containment + similarity query set the fleet
// replays (zipf-popular, containment first).
func fleetQueries(f *benchFixture) []workload.Query {
	return append([]workload.Query{f.containment, f.best}, f.worst...)
}

// fleetInFlight is the deliberately tight static admission bound: the
// static service sheds under a large fleet; the adaptive one starts from
// the same bound and is allowed to grow it.
const fleetInFlight = 3

func newFleetService(tb testing.TB, f *benchFixture, adaptive bool) *service.Service {
	tb.Helper()
	opts := []service.Option{
		service.WithSigma(3),
		service.WithMetrics(metrics.NewRegistry()),
		service.WithSessionTTL(0),
		service.WithVerifyWorkers(2),
		service.WithMaxInFlight(fleetInFlight),
	}
	if adaptive {
		// A generous p99 target with a tight shed target: the admission
		// controller grows the bound as long as the fleet sheds while
		// latency stays within the objective.
		opts = append(opts,
			service.WithSLO(time.Second, 0.02),
			service.WithSLOWindow(100*time.Millisecond),
			service.WithAdaptive(true),
			service.WithAdaptInterval(10*time.Millisecond),
		)
	}
	svc, err := service.New(f.db, f.idx, opts...)
	if err != nil {
		tb.Fatal(err)
	}
	return svc
}

// BenchmarkFleet measures one closed-loop fleet round per op, static vs
// adaptive.
func BenchmarkFleet(b *testing.B) {
	f := aidsFixture(b)
	qs := fleetQueries(f)
	for _, mode := range []string{"static", "adaptive"} {
		b.Run(fmt.Sprintf("sessions=8/%s", mode), func(b *testing.B) {
			svc := newFleetService(b, f, mode == "adaptive")
			defer svc.Close()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				res, err := fleetsim.Run(svc, f.db, qs, fleetsim.Config{
					Sessions:         8,
					QueriesPerWorker: 5,
					Seed:             int64(i),
				})
				if err != nil {
					b.Fatal(err)
				}
				b.ReportMetric(res.ShedRate(), "shed_rate")
				b.ReportMetric(float64(res.P99.Microseconds()), "p99_us")
			}
		})
	}
}
