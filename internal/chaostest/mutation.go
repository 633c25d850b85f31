// Mutation chaos: seeded schedules that mutate the database mid-evaluation.
// One mutator goroutine streams InsertGraph/DeleteGraph calls through the
// service while scripted sessions formulate and run concurrently; some
// schedules also inject verification latency to stretch each Run so
// mutations reliably land inside its evaluation window. The contract is
// epoch consistency: every Run answers against exactly one store epoch — the
// one it pinned at entry, reported in RunOutcome.Epoch — so its answer must
// equal the oracle over that epoch's database, never a mix of two states, no
// matter how many mutations commit while it evaluates. The mutator records
// the live graph set at every epoch it publishes; each checked Run replays
// the oracle against the recorded database of its pinned epoch.

package chaostest

import (
	"math/rand"
	"testing"
	"time"

	"prague/internal/faultinject"
	"prague/internal/metrics"
	"prague/internal/service"
	"prague/internal/store"
)

// QuickMutation is the configuration run under plain `go test` (and `-race`
// in the verification gate). Schedules alternate monolithic and 4-way
// sharded stores.
func QuickMutation() Config {
	return Config{Seed: 13, Schedules: 6, Sessions: 3, Steps: 8, DBSize: 36, Sigma: 2, Mutations: 24}
}

// MutationTotals aggregates what the mutation chaos observed, so callers can
// assert mutation actually interleaved with evaluation.
type MutationTotals struct {
	Runs        int64 // checked Run invocations
	MutatedRuns int64 // runs that pinned a post-mutation epoch (> 0)
	Mutations   int64 // mutations the mutator committed
}

// RunMutation executes cfg.Schedules mutation chaos schedules as subtests
// and returns the aggregate totals. Any epoch-consistency violation fails t.
func RunMutation(t *testing.T, cfg Config) MutationTotals {
	t.Helper()
	var tot MutationTotals
	eachSchedule(t, cfg, "mutation-schedule", func(t *testing.T, fx *Fixture, i int) {
		runMutationSchedule(t, cfg, fx, i, &tot)
	})
	return tot
}

// runMutationSchedule builds one service over a mutable store and streams
// mutations through it while scripted sessions evaluate, then requires every
// session to converge to a StageFull answer matching the final epoch's
// oracle.
func runMutationSchedule(t *testing.T, cfg Config, fx *Fixture, i int, tot *MutationTotals) {
	t.Helper()
	r := rand.New(rand.NewSource(cfg.Seed*1000 + int64(i)))

	var (
		st  store.Store
		err error
	)
	if i%2 == 0 {
		st, err = store.NewSharded(fx.DB, fx.Idx, 1)
	} else {
		st, err = store.NewSharded(fx.DB, fx.Idx, 4)
	}
	if err != nil {
		t.Fatal(err)
	}

	// Half the schedules stretch each Run with injected verification latency
	// (no errors — answers stay exact) so mutations land mid-evaluation.
	sc := schedule{rules: map[faultinject.Site]faultinject.Rule{}, cacheBytes: 1 << 20}
	if r.Intn(2) == 0 {
		sc.rules[faultinject.SiteVerify] = faultinject.Rule{
			Every: 1 + r.Intn(2), Latency: time.Duration(100+r.Intn(400)) * time.Microsecond,
		}
	}
	if r.Intn(3) == 0 {
		sc.cacheBytes = 0
	}
	inj := faultinject.New()
	for site, rule := range sc.rules {
		inj.Set(site, rule)
	}
	svc, err := service.NewFromStore(st,
		service.WithSigma(cfg.Sigma),
		service.WithVerifyWorkers(2),
		service.WithMetrics(metrics.NewRegistry()),
		service.WithCandidateCache(sc.cacheBytes),
		service.WithFaultInjection(inj),
	)
	if err != nil {
		t.Fatal(err)
	}
	defer svc.Close()

	w := workload{svc: svc, st: st, fx: fx, mix: sessionMix,
		typed: sc.typed(), mutations: cfg.Mutations, disarm: inj.Disarm}
	got, ok := w.run(t, cfg, i, sc)
	if !ok {
		return
	}
	tot.Runs += got.runs
	tot.MutatedRuns += got.mutatedRuns
	tot.Mutations += got.mutations
}
