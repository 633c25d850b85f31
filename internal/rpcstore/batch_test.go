package rpcstore

import (
	"context"
	"errors"
	"io"
	"math/rand"
	"net"
	"reflect"
	"sync"
	"testing"
	"time"

	"prague/internal/candcache"
	"prague/internal/core"
	"prague/internal/index"
	"prague/internal/metrics"
	"prague/internal/store"
	"prague/internal/trace"
)

// dialEngine dials the cluster with the shard_rpc counters wired and starts
// an engine on it.
func dialEngine(t *testing.T, c *cluster, opts ...DialOption) (*RemoteStore, *core.Engine, *metrics.Counter) {
	t.Helper()
	reg := metrics.NewRegistry()
	rs, err := Dial(context.Background(), c.addrs, append(opts, WithClientMetrics(reg))...)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { rs.Close() })
	e, err := core.NewWithStore(rs, 2)
	if err != nil {
		t.Fatal(err)
	}
	return rs, e, reg.Counter(metrics.CounterShardRPCCalls)
}

// TestProbeBatchPerReplicaGroup counts shard calls per action on two servers
// that each own half of a 4-shard layout: every action that probes sends one
// request per replica group, and none sends more than two per group (a
// containment step that empties Rq probes the target, then the similarity
// levels). A similarity-mode single-edge deletion sends none: the window
// level it moves onto rode along with the last step's batch.
func TestProbeBatchPerReplicaGroup(t *testing.T) {
	db, idx := buildDB(t, 31, 40)
	c := newCluster(t, db, idx, 4, 2, func(i int) []int { return [][]int{{0, 1}, {2, 3}}[i] })
	rs, e, calls := dialEngine(t, c)
	groups := int64(len(rs.groups))
	if groups != 2 {
		t.Fatalf("%d replica groups, want 2", groups)
	}
	act := func(what string, f func() error) int64 {
		t.Helper()
		before := calls.Value()
		if err := f(); err != nil {
			t.Fatalf("%s: %v", what, err)
		}
		d := calls.Value() - before
		if d > 2*groups {
			t.Errorf("%s made %d shard calls, more than 2 per replica group", what, d)
		}
		return d
	}
	add := func(u, v int) func() error {
		return func() error { _, err := e.AddEdge(u, v); return err }
	}
	n := []int{e.AddNode("C"), e.AddNode("C"), e.AddNode("C"), e.AddNode("N"), e.AddNode("O")}
	act("add e1", add(n[0], n[1]))
	act("add e2", add(n[1], n[2]))
	act("add e3", add(n[2], n[3]))
	if e.SimilarityMode() || e.AwaitingChoice() {
		t.Fatal("fixture: C-C-C-N emptied Rq; the suggestion below needs containment mode")
	}
	// In containment mode only the targets are memoized, so at least one
	// deletion candidate (C-C-N) is probed.
	if d := act("suggest", func() error { _, err := e.SuggestDeletion(); return err }); d != groups {
		t.Errorf("SuggestDeletion made %d shard calls, want %d", d, groups)
	}
	act("choose similarity", func() error { _, err := e.ChooseSimilarityCtx(context.Background()); return err })
	if d := act("similarity add", add(n[3], n[4])); d != groups {
		t.Errorf("similarity-mode AddEdge made %d shard calls, want %d", d, groups)
	}
	if d := act("delete", func() error { _, err := e.DeleteEdge(1); return err }); d != 0 {
		t.Errorf("similarity-mode DeleteEdge made %d shard calls, want 0", d)
	}
	act("run", func() error { _, err := e.Run(); return err })
}

// TestRunAndModifyReadTheMemo counts shard calls, not time: a Run reads
// only the lists formulation fetched, in containment and in similarity mode;
// deleting SuggestDeletion's edge in containment mode reads the list the
// suggestion fetched; and a similarity-mode single-edge deletion, of the
// suggested edge or another, reads what the last step's batch fetched: its
// new target was in the window, and the window's new bottom level rode along.
func TestRunAndModifyReadTheMemo(t *testing.T) {
	db, idx := buildDB(t, 31, 40)
	c := newCluster(t, db, idx, 4, 2, func(i int) []int { return [][]int{{0, 1}, {2, 3}}[i] })
	rs, contain, calls := dialEngine(t, c)
	count := func(f func() error) int64 {
		t.Helper()
		before := calls.Value()
		if err := f(); err != nil {
			t.Fatal(err)
		}
		return calls.Value() - before
	}
	run := func(e *core.Engine) func() error {
		return func() error { _, err := e.Run(); return err }
	}
	formulate := func(e *core.Engine) []int {
		n := []int{e.AddNode("C"), e.AddNode("C"), e.AddNode("C"), e.AddNode("N"), e.AddNode("O")}
		for k := 1; k < 4; k++ {
			if _, err := e.AddEdge(n[k-1], n[k]); err != nil {
				t.Fatal(err)
			}
		}
		if e.SimilarityMode() || e.AwaitingChoice() {
			t.Fatal("fixture: C-C-C-N emptied Rq")
		}
		return n
	}

	formulate(contain)
	if d := count(run(contain)); d != 0 {
		t.Errorf("containment Run after formulation made %d shard calls, want 0", d)
	}
	sg, err := contain.SuggestDeletion()
	if err != nil {
		t.Fatal(err)
	}
	var out core.StepOutcome
	if d := count(func() error { out, err = contain.DeleteEdge(sg.Step); return err }); d != 0 {
		t.Errorf("deleting the suggested e%d made %d shard calls, want 0", sg.Step, d)
	}
	if out.ExactCount == 0 || contain.SimilarityMode() {
		t.Fatalf("fixture: deleting the suggested e%d should keep a non-empty Rq, got %+v", sg.Step, out)
	}
	if d := count(run(contain)); d != 0 {
		t.Errorf("containment Run after the deletion made %d shard calls, want 0", d)
	}

	// On the symmetric path C-C-C-C, q - e1 and q - e3 are one class. The
	// suggestion still fetches the vertex the deletion's target is: for
	// q - e1 that is SPIG 3's e2e3, not SPIG 2's e1e2, which e1 takes along.
	sym, err := core.NewWithStore(rs, 2)
	if err != nil {
		t.Fatal(err)
	}
	p := []int{sym.AddNode("C"), sym.AddNode("C"), sym.AddNode("C"), sym.AddNode("C")}
	for k := 1; k < len(p); k++ {
		if _, err := sym.AddEdge(p[k-1], p[k]); err != nil {
			t.Fatal(err)
		}
	}
	if sg, err = sym.SuggestDeletion(); err != nil {
		t.Fatal(err)
	}
	if d := count(func() error { out, err = sym.DeleteEdge(sg.Step); return err }); d != 0 {
		t.Errorf("deleting the suggested e%d of a path made %d shard calls, want 0", sg.Step, d)
	}
	if out.ExactCount == 0 || sym.SimilarityMode() {
		t.Fatalf("fixture: deleting the suggested e%d of C-C-C-C should keep a non-empty Rq, got %+v", sg.Step, out)
	}

	for _, suggested := range []bool{false, true} {
		sim, err := core.NewWithStore(rs, 2)
		if err != nil {
			t.Fatal(err)
		}
		n := formulate(sim)
		sim.ChooseSimilarity()
		if _, err := sim.AddEdge(n[3], n[4]); err != nil {
			t.Fatal(err)
		}
		if d := count(run(sim)); d != 0 {
			t.Errorf("similarity Run after formulation made %d shard calls, want 0", d)
		}
		del := 1
		if suggested {
			if d := count(func() error { sg, err = sim.SuggestDeletion(); return err }); d != 0 {
				t.Errorf("similarity SuggestDeletion made %d shard calls, want 0", d)
			}
			del = sg.Step
		}
		if d := count(func() error { _, err := sim.DeleteEdge(del); return err }); d != 0 {
			t.Errorf("similarity DeleteEdge(%d) (suggested %v) made %d shard calls, want 0", del, suggested, d)
		}
		if d := count(run(sim)); d != 0 {
			t.Errorf("similarity Run after the deletion made %d shard calls, want 0", d)
		}
	}
}

// TestProbeBatchTrace: a batch is one index_probe span counting its probes,
// with one shard_rpc child per replica group.
func TestProbeBatchTrace(t *testing.T) {
	db, idx := buildDB(t, 32, 30)
	c := newCluster(t, db, idx, 4, 2, func(i int) []int { return [][]int{{0, 1}, {2, 3}}[i] })
	_, e, _ := dialEngine(t, c)
	a, b, d := e.AddNode("C"), e.AddNode("C"), e.AddNode("O")
	if _, err := e.AddEdge(a, b); err != nil {
		t.Fatal(err)
	}
	e.ChooseSimilarity()
	tr := trace.New(trace.Options{Enabled: true})
	ctx, root := tr.StartRoot(context.Background(), trace.KindAddEdge)
	if _, err := e.AddEdgeCtx(ctx, b, d); err != nil {
		t.Fatal(err)
	}
	root.End()
	var batches int
	root.Data().Walk(func(s *trace.SpanData) {
		if s.Kind != trace.KindIndexProbe.String() || s.Counts["probes"] == 0 {
			return // the SPIG classifier's lookups
		}
		batches++
		rpcs := 0
		for _, ch := range s.Children {
			if ch.Kind == trace.KindShardRPC.String() {
				rpcs++
			}
		}
		if rpcs != 2 {
			t.Errorf("index_probe with %d probes has %d shard_rpc children, want 2", s.Counts["probes"], rpcs)
		}
	})
	if batches != 1 {
		t.Errorf("%d probe batches in one similarity step, want 1", batches)
	}
}

// TestProbeBatchSharedCache: with the candidate cache on, the NIF list a
// session fetches is published under its canonical code, and a second
// session drawing the same query is served that list without a shard call.
// The hit and the miss both show as cand_fetch spans.
func TestProbeBatchSharedCache(t *testing.T) {
	db, idx := buildDB(t, 31, 40)
	c := newCluster(t, db, idx, 4, 2, func(i int) []int { return [][]int{{0, 1}, {2, 3}}[i] })
	rs, first, calls := dialEngine(t, c)
	second, err := core.NewWithStore(rs, 2)
	if err != nil {
		t.Fatal(err)
	}
	cache := candcache.New(1<<20, nil)
	first.SetCandidateCache(cache)
	second.SetCandidateCache(cache)
	labels := []string{"C", "C", "C", "C", "C"}
	for _, e := range []*core.Engine{first, second} {
		for _, l := range labels {
			e.AddNode(l)
		}
	}
	tr := trace.New(trace.Options{Enabled: true})
	// fetches runs one traced AddEdge and returns its shard calls and the
	// cand_fetch outcomes it recorded.
	fetches := func(e *core.Engine, u, v int) (int64, map[string]int64) {
		t.Helper()
		before := calls.Value()
		ctx, root := tr.StartRoot(context.Background(), trace.KindAddEdge)
		if _, err := e.AddEdgeCtx(ctx, u, v); err != nil {
			t.Fatal(err)
		}
		root.End()
		got := map[string]int64{}
		root.Data().Walk(func(s *trace.SpanData) {
			if s.Kind == trace.KindCandFetch.String() {
				for k, n := range s.Counts {
					got[k] += n
				}
			}
		})
		return calls.Value() - before, got
	}
	nifTargets := 0
	for k := 1; k < len(labels); k++ {
		_, missed := fetches(first, k-1, k)
		target := first.Spigs().Target(first.Query())
		nif := !target.Kind.Indexed() && !first.SimilarityMode() && !first.AwaitingChoice()
		if nif {
			nifTargets++
			if missed["miss"] != 1 {
				t.Errorf("edge %d: first session's NIF target recorded cand_fetch %v, want one miss", k, missed)
			}
			key := candcache.Key(candcache.KeyCandidates, rs.CacheTag(), target.Code)
			if _, ok := cache.Get(key, candcache.Version{Epoch: rs.Epoch(), Tag: rs.CacheTag()}); !ok {
				t.Errorf("edge %d: the fetched NIF list was not published", k)
			}
		}
		d, hit := fetches(second, k-1, k)
		if nif && (d != 0 || hit["hit"] != 1) {
			t.Errorf("edge %d: second session's NIF target made %d shard calls with cand_fetch %v, want 0 calls and one hit", k, d, hit)
		}
	}
	if nifTargets == 0 {
		t.Fatal("fixture: no step of the C path has a NIF target in containment mode")
	}
}

// TestOverlappingGroupsMatchLocal runs random sessions on a remote layout
// whose servers overlap (A serves shards {0,1}, B serves {1,2,3}: three
// replica groups) next to the same 4-shard layout in process. Every outcome,
// suggestion and answer must be byte-identical.
func TestOverlappingGroupsMatchLocal(t *testing.T) {
	db, idx := buildDB(t, 33, 40)
	c := newCluster(t, db, idx, 4, 2, func(i int) []int { return [][]int{{0, 1}, {1, 2, 3}}[i] })
	rs, _, calls := dialEngine(t, c)
	groups := int64(len(rs.groups))
	if groups != 3 {
		t.Fatalf("%d replica groups, want 3", groups)
	}
	local, err := store.NewSharded(db, idx, 4)
	if err != nil {
		t.Fatal(err)
	}
	labels := []string{"C", "C", "N", "O"}
	for s := int64(0); s < 8; s++ {
		r := rand.New(rand.NewSource(s))
		var engines [2]*core.Engine
		for i, st := range []store.Store{rs, local} {
			if engines[i], err = core.NewWithStore(st, 2); err != nil {
				t.Fatal(err)
			}
		}
		// same applies one action to both engines and compares what they
		// return. Each probe batch is one call per replica group, and an
		// action sends at most two batches.
		same := func(what string, f func(e *core.Engine) any) {
			t.Helper()
			before := calls.Value()
			got := f(engines[0])
			if d := calls.Value() - before; d%groups != 0 || d > 2*groups {
				t.Errorf("session %d: %s made %d shard calls over %d replica groups", s, what, d, groups)
			}
			if want := f(engines[1]); !reflect.DeepEqual(got, want) {
				t.Fatalf("session %d: %s diverged: remote %+v, local %+v", s, what, got, want)
			}
		}
		var nodes []int
		for k := 0; k < 5; k++ {
			l := labels[r.Intn(len(labels))]
			same("node", func(e *core.Engine) any { return e.AddNode(l) })
			nodes = append(nodes, k)
		}
		for k := 1; k < len(nodes); k++ {
			u, v := nodes[r.Intn(k)], nodes[k]
			same("add", func(e *core.Engine) any { return step(e.AddEdge(u, v)) })
			if engines[1].AwaitingChoice() {
				same("choose", func(e *core.Engine) any { return step(e.ChooseSimilarityCtx(context.Background())) })
			}
		}
		same("suggest", func(e *core.Engine) any { sg, err := e.SuggestDeletion(); return []any{sg, err} })
		if sg, err := engines[1].SuggestDeletion(); err == nil && r.Intn(2) == 0 {
			same("delete", func(e *core.Engine) any { return step(e.DeleteEdge(sg.Step)) })
		}
		same("run", func(e *core.Engine) any { res, err := e.Run(); return []any{res, err} })
	}
}

// corruptingProxy forwards frames between its clients and one server,
// appending id numGraphs — one past the id space — to the first part of
// every OpCandidates reply. It returns the address to dial.
func corruptingProxy(t *testing.T, server string, numGraphs int) string {
	t.Helper()
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	var (
		wg     sync.WaitGroup
		mu     sync.Mutex
		conns  []net.Conn
		closed bool
	)
	track := func(c net.Conn) {
		mu.Lock()
		defer mu.Unlock()
		if closed {
			c.Close()
			return
		}
		conns = append(conns, c)
	}
	wg.Add(1)
	go func() {
		defer wg.Done()
		for {
			client, err := ln.Accept()
			if err != nil {
				return
			}
			upstream, err := net.Dial("tcp", server)
			if err != nil {
				client.Close()
				continue
			}
			track(client)
			track(upstream)
			wg.Add(2)
			go func() {
				defer wg.Done()
				io.Copy(upstream, client)
				upstream.Close()
			}()
			go func() {
				defer wg.Done()
				defer client.Close()
				for {
					m, codec, err := ReadFrame(upstream)
					if err != nil {
						return
					}
					if m.Op == OpCandidates && len(m.Parts) > 0 {
						m.Parts[0] = append(m.Parts[0], PackIDs([]int{numGraphs})...)
					}
					if WriteFrame(client, codec, m) != nil {
						return
					}
				}
			}()
		}
	}()
	t.Cleanup(func() {
		ln.Close()
		mu.Lock()
		closed = true
		for _, c := range conns {
			c.Close()
		}
		mu.Unlock()
		wg.Wait()
	})
	return ln.Addr().String()
}

// TestOutOfRangeCandidateIDsRejected: a shard server whose candidate replies
// carry an id outside the pinned epoch's id space is answering malformed
// frames. Its group counts as unanswered: indexed probes get the typed
// error, NIF probes the degraded superset, and a session over the store never
// serves the bogus id.
func TestOutOfRangeCandidateIDsRejected(t *testing.T) {
	db, idx := buildDB(t, 35, 30)
	c := newCluster(t, db, idx, 2, 1, allShards(2))
	rs, err := Dial(context.Background(), []string{corruptingProxy(t, c.addrs[0], len(db))},
		withRetries(0), WithCallTimeout(10*time.Second))
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { rs.Close() })
	pr := rs.Pin()

	_, err = pr.ProbeAll(context.Background(), []store.Probe{{Kind: index.KindFrequent, FreqID: 0}}, 0, nil)
	if !errors.Is(err, store.ErrShardUnavailable) || !errors.Is(err, ErrBadFrame) {
		t.Errorf("indexed probe: err = %v, want ErrShardUnavailable and ErrBadFrame", err)
	}
	nif := []store.Probe{{Kind: index.KindNone}, {Kind: index.KindNone, Phi: []int{0}}}
	got, err := pr.ProbeAll(context.Background(), nif, 0, nil)
	if !errors.Is(err, store.ErrShardUnavailable) {
		t.Errorf("NIF probes: err = %v, want ErrShardUnavailable", err)
	}
	for i := range nif {
		if !reflect.DeepEqual(got[i], rs.LiveIDs()) {
			t.Errorf("NIF probe %d: %v, want the degraded superset (every live id)", i, got[i])
		}
	}

	e, err := core.NewWithStore(rs, 2)
	if err != nil {
		t.Fatal(err)
	}
	n := []int{e.AddNode("C"), e.AddNode("C"), e.AddNode("C")}
	for k := 1; k < len(n); k++ {
		if _, err := e.AddEdge(n[k-1], n[k]); !errors.Is(err, store.ErrShardUnavailable) {
			t.Errorf("edge %d: err = %v, want ErrShardUnavailable", k, err)
		}
	}
	res, err := e.Run()
	if !errors.Is(err, store.ErrShardUnavailable) {
		t.Errorf("Run: err = %v, want ErrShardUnavailable", err)
	}
	for _, r := range res {
		if r.GraphID >= len(db) {
			t.Errorf("Run served the bogus id %d", r.GraphID)
		}
	}
}

// step drops an outcome's timings, the only fields that may differ.
func step(out core.StepOutcome, err error) []any {
	out.SpigTime, out.EvalTime = 0, 0
	return []any{out, err}
}

// formulatePath draws the path C-C-C-N-O edge by edge (steps e1…e4) and
// returns the outcome of the last edge.
func formulatePath(t *testing.T, e *core.Engine) core.StepOutcome {
	t.Helper()
	var out core.StepOutcome
	n := []int{e.AddNode("C"), e.AddNode("C"), e.AddNode("C"), e.AddNode("N"), e.AddNode("O")}
	for k := 1; k < len(n); k++ {
		var err error
		if out, err = e.AddEdge(n[k-1], n[k]); err != nil {
			t.Fatal(err)
		}
	}
	return out
}

// TestModificationsSurfaceProbeErrors: with every shard server gone, a
// modification whose refresh needs an indexed candidate list the session
// never fetched fails typed — not with a zero outcome and a nil error. A
// modification answered wholly from the lists formulation fetched — a
// containment deletion back to a resolved target, or a similarity-mode
// single-edge deletion — needs no server and returns the outcome it returns
// with the servers up.
func TestModificationsSurfaceProbeErrors(t *testing.T) {
	db, idx := buildDB(t, 34, 30)
	c := newCluster(t, db, idx, 2, 1, allShards(2))
	rs, _, _ := dialEngine(t, c, withRetries(0), WithCallTimeout(time.Second))
	engine := func() *core.Engine {
		e, err := core.NewWithStore(rs, 1)
		if err != nil {
			t.Fatal(err)
		}
		if out := formulatePath(t, e); !out.NeedsChoice {
			t.Fatalf("fixture: C-C-C-N-O should empty Rq, got %+v", out)
		}
		return e
	}

	// C-C-C-N-O empties Rq, so its refresh resolved the σ = 1 window (SPIG
	// level 3) and every earlier step its target. Deleting e4 out of the
	// awaiting-choice state returns to C-C-C-N, whose list is memoized.
	up := engine()
	want := step(up.DeleteEdge(4))
	if out := want[0].(core.StepOutcome); out.NeedsChoice || out.ExactCount == 0 {
		t.Fatalf("fixture: deleting e4 should restore a non-empty Rq, got %+v", out)
	}
	fromMemo := engine()
	// The σ = 1 window of C-C-N-O is level 2, which rode along with e4's
	// batch, and its target C-C-N-O was level 3 of that window.
	sims := []*core.Engine{engine(), engine(), engine()}
	for _, e := range sims {
		e.ChooseSimilarity()
	}
	wantSim := step(sims[0].DeleteEdge(1))
	// Deleting e1 and e2 leaves C-N-O, whose window is level 1. SPIG 3's
	// C-N vertex (e3) is indexed, and the session classified it but never
	// probed it.
	if v := sims[0].Spigs().Spig(3).Level(1); len(v) != 1 || !v[0].Kind.Indexed() {
		t.Fatal("fixture: SPIG 3's level-1 vertex should be indexed")
	}

	for _, srv := range c.servers {
		srv.Close()
	}
	if got := step(fromMemo.DeleteEdge(4)); !reflect.DeepEqual(got, want) {
		t.Errorf("DeleteEdge answered from the memo with the servers down = %v, want the servers-up %v", got, want)
	}
	if got := step(sims[1].DeleteEdge(1)); !reflect.DeepEqual(got, wantSim) {
		t.Errorf("similarity DeleteEdge answered from the memo with the servers down = %v, want the servers-up %v", got, wantSim)
	}
	if _, err := sims[2].DeleteEdges([]int{1, 2}); !errors.Is(err, store.ErrShardUnavailable) {
		t.Errorf("similarity DeleteEdges with the servers down: err = %v, want ErrShardUnavailable", err)
	}
}
