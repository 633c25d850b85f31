package rpcstore

import (
	"context"
	"errors"
	"math/rand"
	"net"
	"reflect"
	"testing"
	"time"

	"prague/internal/faultinject"
	"prague/internal/graph"
	"prague/internal/index"
	"prague/internal/metrics"
	"prague/internal/mining"
	"prague/internal/store"
)

var (
	tNodeLabels = []string{"C", "C", "C", "N", "O", "S"}
	tEdgeLabels = []string{"", "", "", "1", "2"}
)

func buildDB(tb testing.TB, seed int64, n int) ([]*graph.Graph, *index.Set) {
	tb.Helper()
	r := rand.New(rand.NewSource(seed))
	db := make([]*graph.Graph, 0, n)
	for i := 0; i < n; i++ {
		db = append(db, randGraph(r, i))
	}
	res, err := mining.Mine(db, mining.Options{MinSupportRatio: 0.3, MaxSize: 6})
	if err != nil {
		tb.Fatal(err)
	}
	idx, err := index.Build(res, 0.3, 3)
	if err != nil {
		tb.Fatal(err)
	}
	return db, idx
}

func randGraph(r *rand.Rand, id int) *graph.Graph {
	nodes := 4 + r.Intn(6)
	g := graph.New(id)
	for v := 0; v < nodes; v++ {
		g.AddNode(tNodeLabels[r.Intn(len(tNodeLabels))])
	}
	for v := 1; v < nodes; v++ {
		g.MustAddEdge(v, r.Intn(v))
	}
	return g
}

// cluster is a loopback topology: one server per replica, each over its own
// independent store replica built from the same (db, idx).
type cluster struct {
	servers []*Server
	stores  []store.Store
	addrs   []string
}

// newCluster starts `replicas` servers, each holding a full replica sharded
// n ways; every server serves the shard subset returned by shardsOf(i).
func newCluster(tb testing.TB, db []*graph.Graph, idx *index.Set, n, replicas int, shardsOf func(i int) []int, opts ...func(i int) []ServerOption) *cluster {
	tb.Helper()
	c := &cluster{}
	for i := 0; i < replicas; i++ {
		st, err := store.NewSharded(db, idx, n)
		if err != nil {
			tb.Fatal(err)
		}
		sopts := []ServerOption{WithServeShards(shardsOf(i)...)}
		for _, extra := range opts {
			sopts = append(sopts, extra(i)...)
		}
		srv := NewServer(st, sopts...)
		if err := srv.Listen("127.0.0.1:0"); err != nil {
			tb.Fatal(err)
		}
		c.servers = append(c.servers, srv)
		c.stores = append(c.stores, st)
		c.addrs = append(c.addrs, srv.Addr().String())
	}
	tb.Cleanup(func() {
		for _, s := range c.servers {
			s.Close()
		}
	})
	return c
}

func allShards(n int) func(int) []int {
	ids := make([]int, n)
	for i := range ids {
		ids[i] = i
	}
	return func(int) []int { return ids }
}

func TestDialValidatesTopology(t *testing.T) {
	db, idx := buildDB(t, 11, 20)

	t.Run("no-endpoints", func(t *testing.T) {
		if _, err := Dial(context.Background(), nil); !errors.Is(err, ErrTopology) {
			t.Errorf("err = %v, want ErrTopology", err)
		}
	})

	t.Run("uncovered-shard", func(t *testing.T) {
		c := newCluster(t, db, idx, 2, 1, func(int) []int { return []int{0} })
		if _, err := Dial(context.Background(), c.addrs); !errors.Is(err, ErrTopology) {
			t.Errorf("err = %v, want ErrTopology", err)
		}
	})

	t.Run("layout-disagreement", func(t *testing.T) {
		c2 := newCluster(t, db, idx, 2, 1, allShards(2))
		c4 := newCluster(t, db, idx, 4, 1, allShards(4))
		addrs := []string{c2.addrs[0], c4.addrs[0]}
		if _, err := Dial(context.Background(), addrs); !errors.Is(err, ErrTopology) {
			t.Errorf("err = %v, want ErrTopology", err)
		}
	})

	t.Run("unreachable", func(t *testing.T) {
		_, err := Dial(context.Background(), []string{"127.0.0.1:1"},
			WithDialTimeout(100*time.Millisecond))
		if err == nil {
			t.Error("dial to a dead port succeeded")
		}
	})
}

// TestRemoteMirrorsLocal checks that the remote store is observably the
// same store as a local replica: identity, universe, shard partition,
// graphs, lookups, and candidate probes all agree.
func TestRemoteMirrorsLocal(t *testing.T) {
	db, idx := buildDB(t, 12, 30)
	const n = 2
	local, err := store.NewSharded(db, idx, n)
	if err != nil {
		t.Fatal(err)
	}
	// Two servers, each the sole owner of one shard.
	c := newCluster(t, db, idx, n, 2, func(i int) []int { return []int{i} })
	rs, err := Dial(context.Background(), c.addrs)
	if err != nil {
		t.Fatal(err)
	}
	defer rs.Close()

	if rs.Epoch() != local.Epoch() || rs.CacheTag() != local.CacheTag() {
		t.Fatalf("identity diverged: remote (%d, %s), local (%d, %s)",
			rs.Epoch(), rs.CacheTag(), local.Epoch(), local.CacheTag())
	}
	if rs.NumShards() != n || rs.NumGraphs() != local.NumGraphs() {
		t.Fatalf("shape diverged: remote (%d shards, %d graphs)", rs.NumShards(), rs.NumGraphs())
	}
	if !reflect.DeepEqual(rs.LiveIDs(), local.LiveIDs()) {
		t.Fatal("live universe diverged")
	}
	for _, id := range local.LiveIDs() {
		if rs.ShardOf(id) != local.ShardOf(id) {
			t.Fatalf("shard assignment of %d diverged", id)
		}
		lg, rg := local.Graph(id), rs.Graph(id)
		if rg == nil || lg.NumNodes() != rg.NumNodes() || lg.NumEdges() != rg.NumEdges() {
			t.Fatalf("graph %d diverged: local %v, remote %v", id, lg, rg)
		}
	}
	sn := rs.Pin()
	for i := 0; i < n; i++ {
		lsh, rsh := local.Shard(i), sn.Shard(i)
		if !reflect.DeepEqual(lsh.GraphIDs(), rsh.GraphIDs()) {
			t.Fatalf("shard %d membership diverged", i)
		}
		if rsh.Index() != nil {
			t.Fatalf("remote shard %d exposes a local index", i)
		}
	}
	// Probe parity: every index entry, an unconstrained NIF (the whole
	// universe) and constrained NIFs, all in one batch, against the local
	// per-shard evaluation merged.
	probes := []store.Probe{{Kind: index.KindNone}}
	for id := 0; id < idx.A2F.NumEntries(); id++ {
		probes = append(probes, store.Probe{Kind: index.KindFrequent, FreqID: id},
			store.Probe{Kind: index.KindNone, Phi: []int{id}, Ups: []int{id % idx.A2I.NumEntries()}})
	}
	for id := 0; id < idx.A2I.NumEntries(); id++ {
		probes = append(probes, store.Probe{Kind: index.KindDIF, DifID: id})
	}
	got, err := sn.(store.Prober).ProbeAll(context.Background(), probes)
	if err != nil {
		t.Fatal(err)
	}
	var sc store.ProbeScratch
	for i, p := range probes {
		parts := make([][]int, n)
		for s := range parts {
			parts[s] = store.ShardCandidates(local.Shard(s), p, &sc)
		}
		if want := store.MergeSorted(parts); !sameIDs(got[i], want) {
			t.Fatalf("probe %+v diverged: remote %v, local %v", p, got[i], want)
		}
	}
	if !reflect.DeepEqual(got[0], local.LiveIDs()) {
		t.Fatalf("unconstrained probe %v, want the live universe", got[0])
	}
	// Lookup parity across the mined vocabulary, plus a guaranteed miss.
	kind, eid := rs.Lookup("no-such-canonical-code")
	lk, le := local.Lookup("no-such-canonical-code")
	if kind != lk || eid != le {
		t.Errorf("miss lookup diverged: remote (%v,%d), local (%v,%d)", kind, eid, lk, le)
	}
}

func TestMutationLockstep(t *testing.T) {
	db, idx := buildDB(t, 13, 24)
	const n = 2
	c := newCluster(t, db, idx, n, 2, allShards(n)) // two full replicas
	rs, err := Dial(context.Background(), c.addrs)
	if err != nil {
		t.Fatal(err)
	}
	defer rs.Close()

	before := rs.Pin()
	r := rand.New(rand.NewSource(99))
	id, err := rs.InsertGraph(randGraph(r, 0))
	if err != nil {
		t.Fatal(err)
	}
	if id != before.NumGraphs() {
		t.Fatalf("assigned id %d, want next slot %d", id, before.NumGraphs())
	}
	after := rs.Pin()
	if after.Epoch() != before.Epoch()+1 || after.NumGraphs() != before.NumGraphs()+1 {
		t.Fatalf("mirror did not advance: %d@%d -> %d@%d",
			before.NumGraphs(), before.Epoch(), after.NumGraphs(), after.Epoch())
	}
	if after.Graph(id) == nil {
		t.Fatal("inserted graph unreadable at the new epoch")
	}
	// Every replica applied the same mutation at the same epoch.
	for i, st := range c.stores {
		if st.Epoch() != after.Epoch() || st.CacheTag() != after.CacheTag() {
			t.Fatalf("replica %d diverged: (%d, %s) vs (%d, %s)",
				i, st.Epoch(), st.CacheTag(), after.Epoch(), after.CacheTag())
		}
		if st.Graph(id) == nil {
			t.Fatalf("replica %d missing inserted graph %d", i, id)
		}
	}
	// The pre-mutation pin still answers: old universe, old epoch, and the
	// old epoch is still probe-able on the servers (pin ring).
	if before.Graph(id) != nil {
		t.Error("old snapshot sees the new graph")
	}
	if _, err := probeOne(before, store.Probe{Kind: index.KindNone}); err != nil {
		t.Errorf("pre-mutation epoch no longer answerable: %v", err)
	}

	victim := after.LiveIDs()[0]
	if err := rs.DeleteGraph(victim); err != nil {
		t.Fatal(err)
	}
	final := rs.Pin()
	if final.Graph(victim) != nil {
		t.Error("deleted graph still readable at the new epoch")
	}
	if after.Graph(victim) == nil {
		t.Error("pinned pre-delete snapshot lost the graph")
	}
	if err := rs.DeleteGraph(victim); !errors.Is(err, store.ErrNoSuchGraph) {
		t.Errorf("double delete: err = %v, want ErrNoSuchGraph", err)
	}
	for i, st := range c.stores {
		if st.Graph(victim) != nil {
			t.Fatalf("replica %d still serves deleted graph %d", i, victim)
		}
		if st.Epoch() != final.Epoch() {
			t.Fatalf("replica %d at epoch %d, coordinator at %d", i, st.Epoch(), final.Epoch())
		}
	}
}

func TestStaleEpochBeyondRingIsTyped(t *testing.T) {
	db, idx := buildDB(t, 14, 16)
	c := newCluster(t, db, idx, 2, 1, allShards(2), func(int) []ServerOption {
		return []ServerOption{WithPinRing(2)}
	})
	rs, err := Dial(context.Background(), c.addrs,
		WithRetries(1), WithBackoff(time.Millisecond))
	if err != nil {
		t.Fatal(err)
	}
	defer rs.Close()

	old := rs.Pin()
	r := rand.New(rand.NewSource(5))
	for i := 0; i < 6; i++ { // push the original epoch out of the ring
		if _, err := rs.InsertGraph(randGraph(r, 0)); err != nil {
			t.Fatal(err)
		}
	}
	_, perr := probeOne(old, store.Probe{Kind: index.KindNone})
	if !errors.Is(perr, store.ErrShardUnavailable) {
		t.Errorf("evicted epoch probe: err = %v, want ErrShardUnavailable", perr)
	}
	// The current pin is unaffected.
	if _, err := probeOne(rs.Pin(), store.Probe{Kind: index.KindNone}); err != nil {
		t.Errorf("current epoch probe failed: %v", err)
	}
}

func TestFailoverToReplica(t *testing.T) {
	db, idx := buildDB(t, 15, 20)
	inj := faultinject.New()
	inj.Set(faultinject.SiteRPCServe, faultinject.Rule{Every: 1, Err: true}) // drop every conn
	c := newCluster(t, db, idx, 2, 2, allShards(2), func(i int) []ServerOption {
		if i == 0 {
			return []ServerOption{WithServerInjector(inj)}
		}
		return nil
	})
	// Dial talks to the healthy replica too, but server 0 drops everything —
	// dial must still succeed only if hello reaches both... so arm after dial.
	inj.Disarm()
	reg := metrics.NewRegistry()
	rs, err := Dial(context.Background(), c.addrs,
		WithClientMetrics(reg), WithHedgeDelay(time.Millisecond),
		WithRetries(2), WithBackoff(time.Millisecond))
	if err != nil {
		t.Fatal(err)
	}
	defer rs.Close()
	inj.Rearm()

	for i := 0; i < 4; i++ {
		if _, err := probeOne(rs.Pin(), store.Probe{Kind: index.KindNone}); err != nil {
			t.Fatalf("probe %d with one healthy replica failed: %v", i, err)
		}
	}
	hr := rs.ShardHealthReport()
	if len(hr) != 2 {
		t.Fatalf("health report for %d shards", len(hr))
	}
	for _, h := range hr {
		if h.Endpoints != 2 || h.Healthy < 1 {
			t.Errorf("shard %d: %d/%d healthy", h.Shard, h.Healthy, h.Endpoints)
		}
	}
	snap := reg.Snapshot()
	if snap.Counters[metrics.CounterShardRPCCalls] == 0 ||
		snap.Counters[metrics.CounterShardRPCAttempts] == 0 {
		t.Error("rpc counters not wired")
	}
}

func TestPartitionIsTypedError(t *testing.T) {
	db, idx := buildDB(t, 16, 20)
	inj := faultinject.New()
	inj.Disarm()
	c := newCluster(t, db, idx, 2, 1, allShards(2), func(int) []ServerOption {
		return []ServerOption{WithServerInjector(inj)}
	})
	rs, err := Dial(context.Background(), c.addrs,
		WithRetries(1), WithBackoff(time.Millisecond), WithCallTimeout(200*time.Millisecond))
	if err != nil {
		t.Fatal(err)
	}
	defer rs.Close()
	inj.Rearm()
	inj.Set(faultinject.SiteRPCServe, faultinject.Rule{Every: 1, Err: true})

	sn := rs.Pin()
	got, perr := sn.(store.Prober).ProbeAll(context.Background(),
		[]store.Probe{{Kind: index.KindFrequent, FreqID: 0}, {Kind: index.KindNone}})
	if !errors.Is(perr, store.ErrShardUnavailable) {
		t.Errorf("partitioned probe: err = %v, want ErrShardUnavailable", perr)
	}
	// The indexed probe has no sound fallback; the NIF probe degrades to the
	// unreachable shards' live ids.
	if got[0] != nil || !reflect.DeepEqual(got[1], sn.LiveIDs()) {
		t.Errorf("partitioned batch: indexed %v (want nil), NIF %d ids (want %d)", got[0], len(got[1]), len(sn.LiveIDs()))
	}
	inj.Disarm()
	if _, err := probeOne(sn, store.Probe{Kind: index.KindNone}); err != nil {
		t.Errorf("probe after partition healed: %v", err)
	}
}

func TestHedgingBeatsSlowPrimary(t *testing.T) {
	db, idx := buildDB(t, 17, 20)
	inj := faultinject.New()
	inj.Disarm()
	c := newCluster(t, db, idx, 1, 2, allShards(1), func(i int) []ServerOption {
		if i == 0 {
			return []ServerOption{WithServerInjector(inj)}
		}
		return nil
	})
	reg := metrics.NewRegistry()
	rs, err := Dial(context.Background(), c.addrs,
		WithClientMetrics(reg), WithHedgeDelay(2*time.Millisecond),
		WithCallTimeout(5*time.Second))
	if err != nil {
		t.Fatal(err)
	}
	defer rs.Close()
	inj.Rearm()
	inj.Set(faultinject.SiteRPCServe, faultinject.Rule{Every: 1, Latency: 300 * time.Millisecond})

	start := time.Now()
	if _, err := probeOne(rs.Pin(), store.Probe{Kind: index.KindNone}); err != nil {
		t.Fatal(err)
	}
	if elapsed := time.Since(start); elapsed > 150*time.Millisecond {
		t.Errorf("hedged call took %v with a 300ms-slow primary and a fast replica", elapsed)
	}
	snap := reg.Snapshot()
	if snap.Counters[metrics.CounterShardRPCHedged] == 0 {
		t.Error("no hedge launched against a slow primary")
	}
	if snap.Counters[metrics.CounterShardRPCHedgeWins] == 0 {
		t.Error("hedge did not win against a 300ms-slow primary")
	}
}

func TestStaleEpochReplyDetected(t *testing.T) {
	db, idx := buildDB(t, 18, 16)
	inj := faultinject.New()
	inj.Disarm()
	c := newCluster(t, db, idx, 1, 1, allShards(1), func(int) []ServerOption {
		return []ServerOption{WithServerInjector(inj)}
	})
	reg := metrics.NewRegistry()
	rs, err := Dial(context.Background(), c.addrs,
		WithClientMetrics(reg), WithRetries(1), WithBackoff(time.Millisecond))
	if err != nil {
		t.Fatal(err)
	}
	defer rs.Close()
	inj.Rearm()
	inj.Set(faultinject.SiteRPCEpoch, faultinject.Rule{Every: 2, Err: true}) // every 2nd reply lies

	want := rs.Pin().LiveIDs()
	for i := 0; i < 6; i++ {
		ids, err := probeOne(rs.Pin(), store.Probe{Kind: index.KindNone})
		if err != nil {
			continue // a round where every attempt drew the corrupted reply
		}
		if !reflect.DeepEqual(ids, want) {
			t.Fatalf("probe %d accepted a wrong-epoch answer", i)
		}
	}
	if reg.Snapshot().Counters[metrics.CounterShardRPCStaleEpoch] == 0 {
		t.Error("stale-epoch replies were never detected")
	}
}

func TestSaveUnsupported(t *testing.T) {
	db, idx := buildDB(t, 19, 12)
	c := newCluster(t, db, idx, 1, 1, allShards(1))
	rs, err := Dial(context.Background(), c.addrs)
	if err != nil {
		t.Fatal(err)
	}
	defer rs.Close()
	if err := rs.Save(t.TempDir()); !errors.Is(err, ErrRemoteSave) {
		t.Errorf("Save: err = %v, want ErrRemoteSave", err)
	}
}

func TestJSONCodecEndToEnd(t *testing.T) {
	db, idx := buildDB(t, 20, 12)
	c := newCluster(t, db, idx, 2, 1, allShards(2))
	rs, err := Dial(context.Background(), c.addrs, WithCodec(CodecJSON))
	if err != nil {
		t.Fatal(err)
	}
	defer rs.Close()
	ids, err := probeOne(rs.Pin(), store.Probe{Kind: index.KindNone})
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(ids, rs.Pin().LiveIDs()) {
		t.Error("JSON-codec probe diverged from membership")
	}
}

// probeOne sends one probe through the snapshot's batch path.
func probeOne(sn store.Snapshot, p store.Probe) ([]int, error) {
	lists, err := sn.(store.Prober).ProbeAll(context.Background(), []store.Probe{p})
	return lists[0], err
}

// sameIDs compares id lists, nil and empty alike.
func sameIDs(a, b []int) bool { return len(a) == len(b) && (len(a) == 0 || reflect.DeepEqual(a, b)) }

// probeBatch is an OpCandidates request for shards carrying a NIF probe and
// then the given probes.
func probeBatch(shards []int, probes ...store.Probe) *Msg {
	m := &Msg{Op: OpCandidates, Shards: shards, Probes: [][]int{packProbe(store.Probe{Kind: index.KindNone})}}
	for _, p := range probes {
		m.Probes = append(m.Probes, packProbe(p))
	}
	return m
}

// badProbeBatches are well-framed OpCandidates requests for shard 0 that are
// bad requests whoever serves them: an index entry id outside the index in
// one probe of the batch (one per id-bearing field), or a probe whose packed
// form is cut short or miscounted.
func badProbeBatches() []*Msg {
	packed := func(w ...int) *Msg {
		m := probeBatch([]int{0})
		m.Probes = append(m.Probes, w)
		return m
	}
	return []*Msg{
		packed(0, -1),
		packed(0, -1, -1, -1),
		packed(0, -1, -1, 2, 0),
		probeBatch([]int{0}, store.Probe{Kind: index.KindFrequent, FreqID: 1 << 30}),
		probeBatch([]int{0}, store.Probe{Kind: index.KindDIF, DifID: -1}),
		probeBatch([]int{0}, store.Probe{Kind: index.KindNone, Phi: []int{1 << 30}}),
		probeBatch([]int{0}, store.Probe{Kind: index.KindNone, Ups: []int{-1}}),
	}
}

// badShardBatches are well-framed OpCandidates requests that a server serving
// shard 0 of 2 must refuse for their shard list: a duplicate, unserved,
// out-of-range or missing shard id.
func badShardBatches() []*Msg {
	return []*Msg{
		probeBatch([]int{0, 0}),
		probeBatch([]int{0, 1}),
		probeBatch([]int{9}),
		probeBatch([]int{-1}),
		probeBatch(nil),
	}
}

// TestBadEntryIDsAreBadRequests sends every malformed batch over one live
// connection: a bad probe must be refused with codeBadRequest, a bad shard
// list with codeBadRequest or codeWrongShard, and the same connection must
// still answer a valid batch afterwards.
func TestBadEntryIDsAreBadRequests(t *testing.T) {
	db, idx := buildDB(t, 21, 30)
	c := newCluster(t, db, idx, 2, 1, func(int) []int { return []int{0} })
	conn, err := net.Dial("tcp", c.addrs[0])
	if err != nil {
		t.Fatal(err)
	}
	defer conn.Close()
	roundTrip := func(m *Msg) *Msg {
		t.Helper()
		m.Epoch = c.stores[0].Epoch()
		if err := WriteFrame(conn, CodecGob, m); err != nil {
			t.Fatal(err)
		}
		reply, _, err := ReadFrame(conn)
		if err != nil {
			t.Fatalf("no reply to %+v: %v", m, err)
		}
		return reply
	}
	for _, m := range badProbeBatches() {
		if reply := roundTrip(m); reply.ErrCode != codeBadRequest {
			t.Errorf("%+v: reply code %d (%s), want codeBadRequest", m, reply.ErrCode, reply.Error)
		}
	}
	for _, m := range badShardBatches() {
		if reply := roundTrip(m); reply.ErrCode != codeBadRequest && reply.ErrCode != codeWrongShard {
			t.Errorf("%+v: reply code %d (%s), want codeBadRequest or codeWrongShard", m, reply.ErrCode, reply.Error)
		}
	}
	sh := c.stores[0].Shard(0)
	freq := store.Probe{Kind: index.KindFrequent, FreqID: 0}
	reply := roundTrip(&Msg{Op: OpCandidates, Shards: []int{0}, Probes: [][]int{packProbe(store.Probe{Kind: index.KindNone}), packProbe(freq)}})
	if reply.ErrCode != codeOK || len(reply.Parts) != 2 ||
		!reflect.DeepEqual(UnpackIDs(reply.Parts[0]), sh.GraphIDs()) ||
		!sameIDs(UnpackIDs(reply.Parts[1]), sh.Index().A2F.FSGIds(0)) {
		t.Errorf("valid batch after the bad ones: code %d (%s), parts %v", reply.ErrCode, reply.Error, reply.Parts)
	}
}
