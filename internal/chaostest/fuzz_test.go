package chaostest

import (
	"context"
	"math/rand"
	"sync"
	"testing"
	"time"

	"prague/internal/core"
	"prague/internal/difftest"
	"prague/internal/faultinject"
)

var (
	fuzzOnce sync.Once
	fuzzFx   *Fixture
)

// fuzzFixture mines one small shared fixture; fuzz iterations must be cheap,
// so the expensive mining happens once per process.
func fuzzFixture(tb testing.TB) *Fixture {
	fuzzOnce.Do(func() { fuzzFx = BuildFixture(tb, 11, 24) })
	if fuzzFx == nil {
		tb.Skip("shared fuzz fixture failed to build")
	}
	return fuzzFx
}

// FuzzDegradationLadder drives the degradation ladder with fuzzer-chosen
// fault rules and budgets over a random (but seed-reproducible) query, and
// asserts the robustness contract: whatever the ladder answers is exactly
// the oracle (StageFull), a flagged sound subset (degraded stages), or a
// typed error — and once the injector is disarmed the session answers
// exactly again. The fuzzer's job is to find a (seed, rule) combination
// that makes the ladder silently wrong.
func FuzzDegradationLadder(f *testing.F) {
	f.Add(int64(1), uint8(0), uint8(0), uint8(0), uint8(0), uint16(0))
	f.Add(int64(2), uint8(1), uint8(1), uint8(0), uint8(0), uint16(0))  // verify error every hit
	f.Add(int64(3), uint8(2), uint8(2), uint8(0), uint8(0), uint16(0))  // verify panic every 3rd hit
	f.Add(int64(4), uint8(0), uint8(0), uint8(2), uint8(3), uint16(0))  // cache + index errors
	f.Add(int64(5), uint8(1), uint8(3), uint8(1), uint8(1), uint16(40)) // everything plus a 40µs budget
	f.Fuzz(func(t *testing.T, seed int64, vEvery, vMode, cEvery, iEvery uint8, budgetMicros uint16) {
		fx := fuzzFixture(t)
		e, err := core.New(fx.DB, fx.Idx, 2)
		if err != nil {
			t.Fatal(err)
		}

		// Formulate a small anchored query fault-free, so the faulted Run is
		// the only thing under test. Every add attaches a fresh node to an
		// existing one, which is always structurally valid.
		r := rand.New(rand.NewSource(seed))
		ctx := context.Background()
		nodes := []int{e.AddNode(difftest.NodeLabels[r.Intn(len(difftest.NodeLabels))])}
		for k := 2 + r.Intn(3); k > 0; k-- {
			u := nodes[r.Intn(len(nodes))]
			v := e.AddNode(difftest.NodeLabels[r.Intn(len(difftest.NodeLabels))])
			nodes = append(nodes, v)
			out, err := e.AddLabeledEdgeCtx(ctx, u, v, difftest.EdgeLabels[r.Intn(len(difftest.EdgeLabels))])
			if err != nil {
				t.Fatalf("formulation add: %v", err)
			}
			if out.NeedsChoice {
				if _, err := e.ChooseSimilarityCtx(ctx); err != nil {
					t.Fatalf("formulation choice: %v", err)
				}
			}
		}

		inj := faultinject.New()
		if vEvery > 0 {
			inj.Set(faultinject.SiteVerify, faultinject.Rule{
				Every:  1 + int(vEvery%5),
				Offset: int(vMode >> 4),
				Err:    vMode&1 != 0,
				Panic:  vMode&2 != 0,
			})
		}
		if cEvery > 0 {
			inj.Set(faultinject.SiteCache, faultinject.Rule{Every: 1 + int(cEvery%4), Err: true})
		}
		if iEvery > 0 {
			inj.Set(faultinject.SiteIndex, faultinject.Rule{Every: 1 + int(iEvery%4), Err: true})
		}
		if budgetMicros > 0 {
			e.SetRunBudget(time.Duration(budgetMicros) * time.Microsecond)
		}

		out, err := e.RunDetailedCtx(faultinject.With(ctx, inj))
		if err != nil {
			if !typedActionErr(err) {
				t.Fatalf("faulted run returned untyped error: %v", err)
			}
		} else {
			qg, _ := e.Query().Graph()
			CheckOutcome(t, fx, "faulted run", out, e.SimilarityMode(), qg, e.Sigma())
		}

		// Disarmed and unbudgeted, the same session must answer exactly.
		inj.Disarm()
		e.SetRunBudget(0)
		out, err = e.RunDetailedCtx(ctx)
		if err != nil {
			t.Fatalf("disarmed run: %v", err)
		}
		if out.Stage != core.StageFull || out.Truncated {
			t.Fatalf("disarmed run did not recover to StageFull: %+v", out)
		}
		qg, _ := e.Query().Graph()
		CheckOutcome(t, fx, "disarmed run", out, e.SimilarityMode(), qg, e.Sigma())
	})
}
