package prague

import (
	"context"
	"errors"
	"io"
	"io/fs"
	"net/http"
	"strings"
	"sync"
	"testing"
	"time"
)

// sharedIndexes builds one small database + index pair for the public-API
// service tests (index construction dominates test time).
var sharedIndexes struct {
	once sync.Once
	db   *Database
	ix   *Indexes
	err  error
}

func serviceFixture(t *testing.T) (*Database, *Indexes) {
	t.Helper()
	sharedIndexes.once.Do(func() {
		db, err := GenerateMolecules(200, 42)
		if err != nil {
			sharedIndexes.err = err
			return
		}
		ix, err := BuildIndexes(db, IndexOptions{Alpha: 0.1, Beta: 3, MaxFragmentSize: 5})
		if err != nil {
			sharedIndexes.err = err
			return
		}
		sharedIndexes.db, sharedIndexes.ix = db, ix
	})
	if sharedIndexes.err != nil {
		t.Fatal(sharedIndexes.err)
	}
	return sharedIndexes.db, sharedIndexes.ix
}

// serviceStore builds a monolithic store over the shared fixture.
func serviceStore(t *testing.T) GraphStore {
	t.Helper()
	db, ix := serviceFixture(t)
	st, err := NewStore(db, ix, 1)
	if err != nil {
		t.Fatal(err)
	}
	return st
}

func TestServiceEndToEnd(t *testing.T) {
	reg := &Metrics{}
	svc, err := NewService(serviceStore(t),
		WithSigma(2),
		WithVerifyWorkers(4),
		WithSessionTTL(time.Minute),
		WithMaxSessions(10),
		WithMetrics(reg))
	if err != nil {
		t.Fatal(err)
	}
	defer svc.Close()

	ctx := context.Background()
	ss, err := svc.Create(ctx)
	if err != nil {
		t.Fatal(err)
	}
	if got, err := svc.Get(ss.ID()); err != nil || got != ss {
		t.Fatalf("Get(%q) = %v, %v", ss.ID(), got, err)
	}

	a, _ := ss.AddNode("C")
	b, _ := ss.AddNode("C")
	out, err := ss.AddEdge(ctx, a, b)
	if err != nil {
		t.Fatal(err)
	}
	if out.NeedsChoice {
		if _, err := ss.Run(ctx); !errors.Is(err, ErrAwaitingChoice) {
			t.Fatalf("Run while awaiting choice: err = %v, want ErrAwaitingChoice", err)
		}
		if _, err := ss.ChooseSimilarity(ctx); err != nil {
			t.Fatal(err)
		}
	}
	results, err := ss.Run(ctx)
	if err != nil {
		t.Fatal(err)
	}
	if len(results) == 0 {
		t.Fatal("C-C query found nothing in a molecule database")
	}

	snap := svc.Snapshot()
	if snap.Counters["sessions_created"] != 1 || snap.Counters["runs_executed"] != 1 {
		t.Errorf("counters off: %v", snap.Counters)
	}
	var buf strings.Builder
	if err := snap.WriteJSON(&buf); err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(buf.String(), `"srt"`) {
		t.Errorf("snapshot JSON missing srt histogram:\n%s", buf.String())
	}

	if err := svc.Delete(ss.ID()); err != nil {
		t.Fatal(err)
	}
	if _, err := svc.Get(ss.ID()); !errors.Is(err, ErrSessionNotFound) {
		t.Errorf("Get after Delete: err = %v, want ErrSessionNotFound", err)
	}
}

func TestNewServiceValidation(t *testing.T) {
	if _, err := NewService(nil); !errors.Is(err, ErrEmptyDatabase) {
		t.Errorf("nil store: err = %v, want ErrEmptyDatabase", err)
	}
	if _, err := NewService(serviceStore(t), WithSigma(-1)); !errors.Is(err, ErrNegativeSigma) {
		t.Errorf("σ < 0: err = %v, want ErrNegativeSigma", err)
	}
}

func TestDatabaseSentinels(t *testing.T) {
	db, _ := serviceFixture(t)
	if _, err := NewDatabase(nil); !errors.Is(err, ErrEmptyDatabase) {
		t.Errorf("NewDatabase(nil): err = %v, want ErrEmptyDatabase", err)
	}
	if _, err := db.Graph(db.Len() + 1); !errors.Is(err, ErrGraphNotFound) {
		t.Errorf("Graph out of range: err = %v, want ErrGraphNotFound", err)
	}
}

// TestFacadeRobustnessExports exercises the overload/fault surface through
// the public API: fault rules armed via the facade degrade a Run into a
// flagged outcome or a typed error, a full admission queue sheds with
// ErrOverloaded (and an *OverloadError retry hint), and Retry gives up with
// the typed error still intact.
func TestFacadeRobustnessExports(t *testing.T) {
	inj := NewFaultInjector()
	svc, err := NewService(serviceStore(t),
		WithSigma(2),
		WithMetrics(NewMetrics()),
		WithMaxInFlight(1),
		WithSessionQueue(1),
		WithFaultInjection(inj),
		WithCandidateCache(-1), // every Run re-verifies, so verify faults keep firing
	)
	if err != nil {
		t.Fatal(err)
	}
	defer svc.Close()
	ctx := context.Background()
	ss, err := svc.Create(ctx)
	if err != nil {
		t.Fatal(err)
	}
	// A 6-edge carbon chain exceeds the fixture's MaxFragmentSize (5), so the
	// full query is a non-indexed fragment and every Run must verify its
	// candidates — guaranteeing the SiteVerify fault hook is on the path.
	prev, _ := ss.AddNode("C")
	for i := 0; i < 6; i++ {
		next, _ := ss.AddNode("C")
		if _, err := ss.AddEdge(ctx, prev, next); err != nil {
			t.Fatal(err)
		}
		prev = next
	}

	inj.Set(FaultSiteVerify, FaultRule{Every: 2, Err: true})
	out, err := ss.RunDetailed(ctx)
	if err != nil {
		if !errors.Is(err, ErrVerifyFaults) && !errors.Is(err, ErrBudgetExhausted) {
			t.Fatalf("faulted run: untyped error %v", err)
		}
	} else if out.Faults > 0 && (!out.Truncated || out.Stage == StageFull) {
		t.Fatalf("faulted run not flagged: %+v", out)
	}
	if inj.Hits(FaultSiteVerify) == 0 {
		t.Fatal("6-edge NIF query did not reach verification; fixture changed?")
	}

	// Hold the single admission slot with a run whose per-candidate
	// verification sleeps under an injected latency rule, then observe the
	// shed from a second session. Waiting for Fired to tick (rather than
	// sleeping a guessed amount) makes the overlap deterministic: once the
	// first candidate is inside its injected sleep, the remaining candidates
	// still owe theirs, so the slot stays held while we provoke the shed.
	inj.Set(FaultSiteVerify, FaultRule{Every: 1, Latency: 20 * time.Millisecond})
	ss2, err := svc.Create(ctx)
	if err != nil {
		t.Fatal(err)
	}
	c, _ := ss2.AddNode("C")
	d, _ := ss2.AddNode("N")
	fired := inj.NotifyFired(FaultSiteVerify)
	holder := make(chan error, 1)
	go func() {
		_, err := ss.RunDetailed(ctx)
		holder <- err
	}()
	select {
	case <-fired:
	case <-time.After(5 * time.Second):
		t.Fatal("latency rule never fired; slot-holder run did not verify")
	}
	_, err = ss2.AddEdge(ctx, c, d)
	if err == nil || !errors.Is(err, ErrOverloaded) {
		t.Fatalf("AddEdge with a full admission queue: %v, want ErrOverloaded", err)
	}
	var oe *OverloadError
	if !errors.As(err, &oe) || oe.RetryAfter <= 0 {
		t.Fatalf("shed error carries no retry hint: %v", err)
	}
	inj.Disarm() // stop per-candidate sleeps so the holder drains quickly
	if err := <-holder; err != nil && !errors.Is(err, ErrVerifyFaults) {
		t.Fatalf("slot-holding run: %v", err)
	}

	// Retry backs off on ErrOverloaded and succeeds once the slot frees up.
	if err := Retry(ctx, 5, time.Millisecond, func() error {
		_, err := ss2.AddEdge(ctx, c, d)
		return err
	}); err != nil {
		t.Fatalf("retried AddEdge never succeeded: %v", err)
	}
	if out, err := ss2.RunDetailed(ctx); err != nil {
		t.Fatal(err)
	} else if out.Stage != StageFull || out.Truncated {
		t.Fatalf("fault-free run degraded: %+v", out)
	}
}

// TestFacadeStoreExports exercises the GraphStore surface through the public
// API: construction, persistence round-trips (including after mutation),
// epoch-pinned snapshots, and a service over a reloaded sharded store.
func TestFacadeStoreExports(t *testing.T) {
	db, ix := serviceFixture(t)
	ctx := context.Background()

	if _, err := NewStore(nil, ix, 1); !errors.Is(err, ErrEmptyDatabase) {
		t.Errorf("NewStore(nil): %v", err)
	}
	if _, err := LoadStore(nil, t.TempDir()); !errors.Is(err, ErrEmptyDatabase) {
		t.Errorf("LoadStore(nil): %v", err)
	}
	// A bare SaveIndexes directory holds no store manifest.
	ixDir := t.TempDir()
	if err := SaveIndexes(ix, ixDir); err != nil {
		t.Fatal(err)
	}
	if _, err := LoadStore(db, ixDir); !errors.Is(err, fs.ErrNotExist) {
		t.Errorf("LoadStore(bare index dir): %v, want fs.ErrNotExist", err)
	}

	st, err := NewStore(db, ix, 1)
	if err != nil {
		t.Fatal(err)
	}
	// Mutate, then persist: LoadStore must restore the epoch and cache tag.
	g := NewGraph(0)
	a := g.AddNode("C")
	b := g.AddNode("N")
	g.MustAddEdge(a, b)
	id, err := st.InsertGraph(g)
	if err != nil {
		t.Fatal(err)
	}
	var snap StoreSnapshot = st.Pin()
	if snap.Epoch() != 1 {
		t.Errorf("pinned epoch %d after one insert", snap.Epoch())
	}
	dir := t.TempDir()
	if err := SaveStore(st, dir); err != nil {
		t.Fatal(err)
	}
	reDB, err := NewDatabase(append(append([]*Graph(nil), db.Graphs()...), st.Graph(id)))
	if err != nil {
		t.Fatal(err)
	}
	loaded, err := LoadStore(reDB, dir)
	if err != nil {
		t.Fatal(err)
	}
	if loaded.CacheTag() != st.CacheTag() {
		t.Errorf("reloaded tag %q, want %q", loaded.CacheTag(), st.CacheTag())
	}

	sharded, err := NewStore(db, ix, 2)
	if err != nil {
		t.Fatal(err)
	}
	sdir := t.TempDir()
	if err := SaveStore(sharded, sdir); err != nil {
		t.Fatal(err)
	}
	sloaded, err := LoadStore(db, sdir)
	if err != nil {
		t.Fatal(err)
	}
	if sloaded.CacheTag() != sharded.CacheTag() {
		t.Errorf("reloaded sharded tag %q, want %q", sloaded.CacheTag(), sharded.CacheTag())
	}

	// Store-first service with online mutation.
	svc, err := NewService(sloaded, WithSigma(2))
	if err != nil {
		t.Fatal(err)
	}
	defer svc.Close()
	mid, err := svc.InsertGraph(ctx, g.Clone())
	if err != nil {
		t.Fatal(err)
	}
	if svc.Epoch() != 1 {
		t.Errorf("service epoch after insert: %d", svc.Epoch())
	}
	if err := svc.DeleteGraph(ctx, mid); err != nil {
		t.Fatal(err)
	}
	if svc.Store() != sloaded {
		t.Error("the service does not serve the store it was built over")
	}
}

// TestFacadePatternHelpers pins the pattern-composition facade: each helper
// returns a well-formed connected graph of the advertised shape.
func TestFacadePatternHelpers(t *testing.T) {
	if g := Benzene(); g.NumNodes() != 6 || g.Size() != 6 {
		t.Errorf("Benzene: %d nodes %d edges", g.NumNodes(), g.Size())
	}
	if g := KekuleBenzene(); g.NumNodes() != 6 || g.Size() != 6 {
		t.Errorf("KekuleBenzene: %d nodes %d edges", g.NumNodes(), g.Size())
	}
	ring, err := Ring("C", "C", "N")
	if err != nil || ring.Size() != 3 {
		t.Errorf("Ring: %v %v", ring, err)
	}
	if _, err := Ring("C"); err == nil {
		t.Error("degenerate ring accepted")
	}
	br, err := BondedRing([]string{"C", "C", "O"}, []string{"-", "=", "-"})
	if err != nil || br.Size() != 3 {
		t.Errorf("BondedRing: %v %v", br, err)
	}
	if _, err := BondedRing([]string{"C", "C"}, []string{"-"}); err == nil {
		t.Error("mismatched bond count accepted")
	}
	star, err := Star("C", "N", "O", "S")
	if err != nil || star.NumNodes() != 4 || star.Size() != 3 {
		t.Errorf("Star: %v %v", star, err)
	}
	if db, err := GenerateBondedMolecules(20, 1); err != nil || db.Len() != 20 {
		t.Errorf("GenerateBondedMolecules: %v %v", db, err)
	}
}

// TestFacadeOptionsTakeEffect shows that each facade option no other root
// test exercises changes what the service does: the action deadline turns a
// Run stuck in verification into a flagged degraded answer, the slow
// threshold keeps fast actions out of the journal (and turns tracing on),
// and the ops server answers /healthz on the address it bound.
func TestFacadeOptionsTakeEffect(t *testing.T) {
	ctx := context.Background()
	// chain formulates a 6-edge carbon chain, past the fixture's
	// MaxFragmentSize (5), so the whole query is a non-indexed fragment and
	// Run must verify its candidates.
	chain := func(t *testing.T, ss *ManagedSession) {
		t.Helper()
		prev, _ := ss.AddNode("C")
		for i := 0; i < 6; i++ {
			next, _ := ss.AddNode("C")
			if _, err := ss.AddEdge(ctx, prev, next); err != nil {
				t.Fatal(err)
			}
			prev = next
		}
	}
	inj := NewFaultInjector()
	cases := []struct {
		name  string
		opts  []Option
		check func(t *testing.T, svc *Service, ss *ManagedSession)
	}{
		{"WithActionDeadline", []Option{
			WithActionDeadline(100 * time.Millisecond),
			WithFaultInjection(inj),
			WithCandidateCache(-1),
		}, func(t *testing.T, svc *Service, ss *ManagedSession) {
			chain(t, ss)
			// Every verification now sleeps a minute unless the action's
			// budget cancels it.
			inj.Set(FaultSiteVerify, FaultRule{Every: 1, Latency: time.Minute})
			defer inj.Disarm()
			out, err := ss.RunDetailed(ctx)
			if err != nil {
				if !errors.Is(err, ErrBudgetExhausted) {
					t.Fatalf("Run past its deadline: %v", err)
				}
				return
			}
			if !out.Truncated || out.Stage == StageFull {
				t.Errorf("Run past its deadline answered unflagged: stage %v truncated %v", out.Stage, out.Truncated)
			}
		}},
		{"WithSlowThreshold", []Option{WithSlowThreshold(time.Hour)},
			func(t *testing.T, svc *Service, ss *ManagedSession) {
				chain(t, ss)
				if _, err := ss.Run(ctx); err != nil {
					t.Fatal(err)
				}
				if _, err := ss.TraceReport(); err != nil {
					t.Errorf("the slow threshold did not turn tracing on: %v", err)
				}
				if n := len(svc.SlowSpans()); n != 0 {
					t.Errorf("%d actions faster than the threshold were journaled", n)
				}
			}},
		{"WithSlowThreshold(0)", []Option{WithSlowThreshold(0)},
			func(t *testing.T, svc *Service, ss *ManagedSession) {
				chain(t, ss)
				if _, err := ss.Run(ctx); err != nil {
					t.Fatal(err)
				}
				if len(svc.SlowSpans()) == 0 {
					t.Error("a zero threshold journaled nothing")
				}
			}},
		{"WithOpsServer", []Option{WithOpsServer("127.0.0.1:0")},
			func(t *testing.T, svc *Service, ss *ManagedSession) {
				addr := svc.OpsAddr()
				if addr == "" {
					t.Fatal("no ops address bound")
				}
				resp, err := http.Get("http://" + addr + "/healthz")
				if err != nil {
					t.Fatal(err)
				}
				defer resp.Body.Close()
				body, _ := io.ReadAll(resp.Body)
				if resp.StatusCode != http.StatusOK || strings.TrimSpace(string(body)) != "ok" {
					t.Errorf("/healthz = %d %q", resp.StatusCode, body)
				}
			}},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			opts := append([]Option{WithSigma(2), WithMetrics(NewMetrics()), WithSessionTTL(0)}, tc.opts...)
			svc, err := NewService(serviceStore(t), opts...)
			if err != nil {
				t.Fatal(err)
			}
			defer svc.Close()
			ss, err := svc.Create(ctx)
			if err != nil {
				t.Fatal(err)
			}
			tc.check(t, svc, ss)
		})
	}
}
