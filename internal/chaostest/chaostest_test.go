package chaostest

import (
	"math"
	"math/rand"
	"testing"

	"prague/internal/difftest"
	"prague/internal/query"
)

// TestChaosQuick is the acceptance gate: 50 seeded fault schedules, each a
// multi-session scripted workload under injected verification errors,
// panics, latency, cache/index faults, tight deadlines, and overload bursts.
// Zero invariant violations are tolerated, and the chaos must demonstrably
// bite — a suite whose faults never fire proves nothing.
func TestChaosQuick(t *testing.T) {
	if testing.Short() {
		t.Skip("chaos suite mines two fixtures; skipped in -short")
	}
	tot := Run(t, Quick())
	if t.Failed() {
		return
	}
	t.Logf("chaos totals: %+v", tot)
	if tot.Runs == 0 {
		t.Fatal("chaos suite checked zero runs")
	}
	if tot.FaultsFired == 0 {
		t.Fatal("no injected fault ever fired — the schedules are not reaching the instrumented sites")
	}
	if tot.Degraded == 0 {
		t.Error("no run ever degraded below StageFull — the ladder was never exercised")
	}
	if tot.WorkerPanics == 0 {
		t.Error("no verification panic was recovered — the panic schedules are not reaching the pool")
	}
	if tot.Shed == 0 {
		t.Error("admission control never shed — the overload schedules are not colliding")
	}
}

// TestMutationChaos drives seeded schedules in which a mutator streams
// InsertGraph/DeleteGraph calls through the service while sessions evaluate
// concurrently. Every Run must be epoch-consistent: pinned to exactly one
// store epoch (RunOutcome.Epoch) and answering exactly the oracle over that
// epoch's recorded database — a run that mixed two epochs, surfaced a
// deleted graph, or leaked a mid-evaluation insert fails.
func TestMutationChaos(t *testing.T) {
	cfg := QuickMutation()
	if testing.Short() {
		// The tiny fixtures mine in well under a second, so unlike the main
		// chaos suite this one stays on in -short — just fewer schedules.
		cfg.Schedules = 2
	}
	tot := RunMutation(t, cfg)
	if t.Failed() {
		return
	}
	t.Logf("mutation chaos totals: %+v", tot)
	if tot.Runs == 0 {
		t.Fatal("mutation chaos checked zero runs")
	}
	if tot.Mutations == 0 {
		t.Fatal("the mutator never committed a mutation")
	}
	if tot.MutatedRuns == 0 {
		t.Error("no run ever pinned a post-mutation epoch — mutation never interleaved with evaluation")
	}
}

// TestSessionMixShares checks the sessions' weight tables draw their op
// shares: against a fragment where every action is possible, half the
// actions are adds, a fifth deletions, and the rest checked Runs, of which a
// burst schedule spends a third on bursts. Mutations come from the mutator,
// never from a session.
func TestSessionMixShares(t *testing.T) {
	q := query.New()
	for i := 0; i < 4; i++ {
		q.AddNode("C")
	}
	for i := 0; i < 3; i++ { // a path: both end edges are deletable
		if _, err := q.AddEdge(i, i+1); err != nil {
			t.Fatal(err)
		}
	}
	const draws = 20000
	for _, tc := range []struct {
		mix  difftest.Mix
		want map[difftest.Kind]float64
	}{
		{sessionMix, map[difftest.Kind]float64{difftest.Add: 0.5, difftest.Delete: 0.2, difftest.Check: 0.3}},
		{burstMix, map[difftest.Kind]float64{difftest.Add: 0.5, difftest.Delete: 0.2, difftest.Burst: 0.1, difftest.Check: 0.2}},
	} {
		sc := difftest.NewScript(rand.New(rand.NewSource(1)), tc.mix)
		for i := 0; i < 4; i++ {
			sc.Node()
		}
		got := map[difftest.Kind]float64{}
		for i := 0; i < draws; i++ {
			got[sc.Next(q).Kind] += 1.0 / draws
		}
		for kind := difftest.Skip; kind <= difftest.Check; kind++ {
			if math.Abs(got[kind]-tc.want[kind]) > 0.02 {
				t.Errorf("mix %+v: kind %d drawn at share %.3f, want %.2f", tc.mix, kind, got[kind], tc.want[kind])
			}
		}
	}
}
