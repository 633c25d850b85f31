package rpcstore

import (
	"context"
	"errors"
	"math/rand"
	"reflect"
	"testing"
	"time"

	"prague/internal/candcache"
	"prague/internal/core"
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
// levels).
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
	if d := act("delete", func() error { _, err := e.DeleteEdge(1); return err }); d != groups {
		t.Errorf("DeleteEdge made %d shard calls, want %d", d, groups)
	}
	act("run", func() error { _, err := e.Run(); return err })
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
			if _, ok := cache.Get(key); !ok {
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

// step drops an outcome's timings, the only fields that may differ.
func step(out core.StepOutcome, err error) []any {
	out.SpigTime, out.EvalTime = 0, 0
	return []any{out, err}
}

// TestModificationsSurfaceProbeErrors: with every shard server gone, the
// multi-edge delete and the relabel must fail typed — not return a zero
// outcome with a nil error.
func TestModificationsSurfaceProbeErrors(t *testing.T) {
	db, idx := buildDB(t, 34, 30)
	c := newCluster(t, db, idx, 2, 1, allShards(2))
	_, e, _ := dialEngine(t, c, WithRetries(0), WithCallTimeout(time.Second))
	n := []int{e.AddNode("C"), e.AddNode("C"), e.AddNode("C"), e.AddNode("C")}
	for k := 1; k < len(n); k++ {
		if _, err := e.AddEdge(n[k-1], n[k]); err != nil {
			t.Fatal(err)
		}
	}
	e.ChooseSimilarity()
	for _, srv := range c.servers {
		srv.Close()
	}
	// Similarity refreshes probe SPIG level 1, whose single edges are always
	// indexed: a failed indexed probe has no sound fallback.
	if _, err := e.DeleteEdges([]int{3}); !errors.Is(err, store.ErrShardUnavailable) {
		t.Errorf("DeleteEdges with the servers down: err = %v, want ErrShardUnavailable", err)
	}
	if _, err := e.RelabelNode(n[2], "N"); !errors.Is(err, store.ErrShardUnavailable) {
		t.Errorf("RelabelNode with the servers down: err = %v, want ErrShardUnavailable", err)
	}
}
