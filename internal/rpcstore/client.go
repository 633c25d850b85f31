package rpcstore

import (
	"context"
	"errors"
	"fmt"
	"net"
	"slices"
	"sort"
	"sync"
	"sync/atomic"
	"time"

	"prague/internal/faultinject"
	"prague/internal/graph"
	"prague/internal/index"
	"prague/internal/metrics"
	"prague/internal/prefilter"
	"prague/internal/store"
	"prague/internal/trace"
)

// Dial defaults. The call timeout is a DialOption; the connect timeout,
// retry rounds, backoff and hedge delay are fixed.
const (
	defaultCallTimeout = 2 * time.Second
	defaultDialTimeout = 2 * time.Second
	defaultRetries     = 2
	defaultBackoff     = 2 * time.Millisecond
	defaultHedgeDelay  = 2 * time.Millisecond
	poolConnsPerHost   = 4
	graphFetchBatch    = 512
)

// ErrTopology wraps every Dial-time topology validation failure: uncovered
// shards, replicas that disagree on layout, content, or epoch.
var ErrTopology = errors.New("inconsistent shard topology")

// ErrRemoteSave marks Save as unsupported on a remote coordinator: the
// layout lives with the shard servers, which persist their own replicas.
var ErrRemoteSave = errors.New("save is not supported over a remote store")

// DialOption configures Dial.
type DialOption func(*RemoteStore)

var (
	_ store.Store          = (*RemoteStore)(nil)
	_ store.HealthReporter = (*RemoteStore)(nil)
	_ store.Snapshot       = (*remoteSnap)(nil)
)

// WithCallTimeout bounds one wire attempt (default 2s). The deadline budget
// of one replica-group call is min(ctx deadline, attempts × timeout with
// backoff) — the action context stays the overall authority.
func WithCallTimeout(d time.Duration) DialOption {
	return func(rs *RemoteStore) {
		if d > 0 {
			rs.callTimeout = d
		}
	}
}

// WithClientMetrics wires the shard_rpc_* counters and shard-health gauges
// into a registry at dial time (SetMetrics does the same later).
func WithClientMetrics(reg *metrics.Registry) DialOption {
	return func(rs *RemoteStore) { rs.reg.Store(reg) }
}

// RemoteStore is the coordinator-side store.Store over a set of shard
// servers. Candidate probes scatter once per replica group with retry,
// failover, and hedging; lookups go to any endpoint; graphs are
// prefetched once and cached forever (ids are never reused and graphs are
// immutable per id); mutations broadcast to every endpoint in lockstep
// under a CAS on the base epoch, so all replicas assign identical ids and
// epochs. The coordinator is the topology's sole mutator — epoch state is
// mirrored client-side, which makes Pin allocation- and RPC-free.
type RemoteStore struct {
	endpoints []string
	pools     []*connPool
	healthy   []atomic.Bool
	shardEps  [][]int        // shard id -> endpoint indices, dial order
	groups    []replicaGroup // shards partitioned by endpoint list
	numShards int

	callTimeout time.Duration
	dialTimeout time.Duration
	hedgeDelay  time.Duration
	backoff     time.Duration
	maxRetries  int

	mirror atomic.Pointer[remoteMirror]
	mutMu  sync.Mutex // serializes mutation broadcasts

	// life ends when Close is called: a mutation's retry backoff, which has
	// no caller context to end with, ends with it.
	life context.Context
	stop context.CancelFunc

	graphMu sync.RWMutex
	graphs  map[int]*graph.Graph

	seq atomic.Uint64
	rr  atomic.Uint64 // round-robin cursor for unsharded ops
	reg atomic.Pointer[metrics.Registry]
}

// replicaGroup is the set of shards served by exactly the same endpoints, in
// the same dial order: one candidate request reaches all of them, so a
// probe batch costs one call per group.
type replicaGroup struct {
	shards []int // ascending
	eps    []int // endpoint indices, dial order
}

// remoteMirror is the coordinator's view of the cluster's published epoch.
// It changes only under mutMu (the coordinator is the sole mutator), and is
// read lock-free by Pin.
type remoteMirror struct {
	snap *remoteSnap
}

// Dial connects to every endpoint, validates that the replicas agree on
// layout, content fingerprint, and epoch, assembles the shard→endpoints
// topology (several servers claiming one shard are replicas, in dial
// order), prefetches the live graphs, and returns the coordinator store.
func Dial(ctx context.Context, endpoints []string, opts ...DialOption) (*RemoteStore, error) {
	if len(endpoints) == 0 {
		return nil, fmt.Errorf("rpcstore: dial: no endpoints: %w", ErrTopology)
	}
	rs := &RemoteStore{
		endpoints:   endpoints,
		callTimeout: defaultCallTimeout,
		dialTimeout: defaultDialTimeout,
		hedgeDelay:  defaultHedgeDelay,
		backoff:     defaultBackoff,
		maxRetries:  defaultRetries,
		graphs:      map[int]*graph.Graph{},
	}
	rs.life, rs.stop = context.WithCancel(context.Background())
	for _, o := range opts {
		o(rs)
	}
	rs.pools = make([]*connPool, len(endpoints))
	rs.healthy = make([]atomic.Bool, len(endpoints))
	for i, addr := range endpoints {
		rs.pools[i] = &connPool{addr: addr, dialTimeout: rs.dialTimeout}
		rs.healthy[i].Store(true)
	}

	hellos := make([]*Msg, len(endpoints))
	for i := range endpoints {
		reply, err := rs.attempt(ctx, i, &Msg{Op: OpHello}, false)
		if err != nil {
			rs.Close()
			return nil, fmt.Errorf("rpcstore: dial %s: %w", endpoints[i], err)
		}
		hellos[i] = reply
	}
	h0 := hellos[0]
	if h0.NumShards <= 0 {
		rs.Close()
		return nil, fmt.Errorf("rpcstore: dial %s: bad shard count %d: %w",
			endpoints[0], h0.NumShards, ErrTopology)
	}
	for i, h := range hellos {
		if h.NumShards != h0.NumShards || h.Tag != h0.Tag || h.Epoch != h0.Epoch || h.NumGraphs != h0.NumGraphs {
			rs.Close()
			return nil, fmt.Errorf(
				"rpcstore: dial: %s (N=%d tag=%s epoch=%d) disagrees with %s (N=%d tag=%s epoch=%d): %w",
				endpoints[i], h.NumShards, h.Tag, h.Epoch,
				endpoints[0], h0.NumShards, h0.Tag, h0.Epoch, ErrTopology)
		}
	}
	rs.numShards = h0.NumShards
	rs.shardEps = make([][]int, rs.numShards)
	for i, h := range hellos {
		for _, sid := range h.Shards {
			if sid < 0 || sid >= rs.numShards {
				rs.Close()
				return nil, fmt.Errorf("rpcstore: dial %s: serves shard %d of %d: %w",
					endpoints[i], sid, rs.numShards, ErrTopology)
			}
			rs.shardEps[sid] = append(rs.shardEps[sid], i)
		}
	}
	for sid, eps := range rs.shardEps {
		if len(eps) == 0 {
			rs.Close()
			return nil, fmt.Errorf("rpcstore: dial: no endpoint serves shard %d: %w", sid, ErrTopology)
		}
		gi := slices.IndexFunc(rs.groups, func(g replicaGroup) bool { return slices.Equal(g.eps, eps) })
		if gi < 0 {
			gi = len(rs.groups)
			rs.groups = append(rs.groups, replicaGroup{eps: eps})
		}
		rs.groups[gi].shards = append(rs.groups[gi].shards, sid)
	}

	live := UnpackIDs(h0.IDs)
	if err := rs.fetchGraphs(ctx, live); err != nil {
		rs.Close()
		return nil, fmt.Errorf("rpcstore: dial: prefetch graphs: %w", err)
	}
	rs.publishMirror(h0.Epoch, h0.Tag, h0.NumGraphs, live, nil, nil)
	rs.updateHealthGauges()
	if reg := rs.reg.Load(); reg != nil {
		reg.Counter(metrics.CounterShardEndpointsAll).Set(int64(len(endpoints)))
	}
	return rs, nil
}

// publishMirror installs a new epoch view (Dial, and each mutation). tab is
// the view's filter table when the mutation derived it from its parent's;
// nil leaves it to be built by the view's first reader. hist is the view's
// mutation history: the broadcasts this coordinator made, none at Dial.
func (rs *RemoteStore) publishMirror(epoch uint64, tag string, numGraphs int, live []int, tab *prefilter.Table, hist store.History) {
	sn := &remoteSnap{
		rs:        rs,
		epoch:     epoch,
		tag:       tag,
		hist:      hist,
		numGraphs: numGraphs,
		live:      live,
		shardIDs:  make([][]int, rs.numShards),
	}
	for _, id := range live {
		si := store.AssignShard(id, rs.numShards)
		sn.shardIDs[si] = append(sn.shardIDs[si], id)
	}
	if tab != nil {
		sn.filter.Set(tab)
	}
	rs.mirror.Store(&remoteMirror{snap: sn})
}

// SetMetrics wires the shard_rpc_* counters and health gauges into reg.
// The service layer calls it when the store is injected via an option.
func (rs *RemoteStore) SetMetrics(reg *metrics.Registry) {
	rs.reg.Store(reg)
	if reg != nil {
		reg.Counter(metrics.CounterShardEndpointsAll).Set(int64(len(rs.endpoints)))
		rs.updateHealthGauges()
	}
}

func (rs *RemoteStore) inc(name string) {
	if reg := rs.reg.Load(); reg != nil {
		reg.Counter(name).Inc()
	}
}

func (rs *RemoteStore) updateHealthGauges() {
	reg := rs.reg.Load()
	if reg == nil {
		return
	}
	up := 0
	for i := range rs.healthy {
		if rs.healthy[i].Load() {
			up++
		}
	}
	reg.Counter(metrics.CounterShardEndpointsUp).Set(int64(up))
}

// ShardHealthReport implements store.HealthReporter: per shard, how many
// endpoints own it and how many are currently healthy (their last wire
// attempt succeeded).
func (rs *RemoteStore) ShardHealthReport() []store.ShardHealth {
	out := make([]store.ShardHealth, rs.numShards)
	for sid, eps := range rs.shardEps {
		h := store.ShardHealth{Shard: sid, Endpoints: len(eps)}
		for _, ep := range eps {
			if rs.healthy[ep].Load() {
				h.Healthy++
			}
		}
		out[sid] = h
	}
	return out
}

// Endpoints returns the dialed endpoint addresses.
func (rs *RemoteStore) Endpoints() []string { return append([]string(nil), rs.endpoints...) }

// Close tears down every pooled connection and ends any mutation's retry
// backoff. The store is unusable after.
func (rs *RemoteStore) Close() error {
	rs.stop()
	for _, p := range rs.pools {
		if p != nil {
			p.closeAll()
		}
	}
	return nil
}

// ---- store.Store / store.Snapshot ----

// Pin returns the coordinator's mirror of the current epoch — no RPC: the
// coordinator is the sole mutator, so its mirror can only be behind its own
// broadcasts, never behind the cluster.
func (rs *RemoteStore) Pin() store.Snapshot { return rs.mirror.Load().snap }

func (rs *RemoteStore) Epoch() uint64                        { return rs.Pin().Epoch() }
func (rs *RemoteStore) NumGraphs() int                       { return rs.Pin().NumGraphs() }
func (rs *RemoteStore) Graph(id int) *graph.Graph            { return rs.Pin().Graph(id) }
func (rs *RemoteStore) LiveIDs() []int                       { return rs.Pin().LiveIDs() }
func (rs *RemoteStore) Lookup(code string) (index.Kind, int) { return rs.Pin().Lookup(code) }
func (rs *RemoteStore) NumShards() int                       { return rs.numShards }
func (rs *RemoteStore) ShardOf(graphID int) int              { return store.AssignShard(graphID, rs.numShards) }
func (rs *RemoteStore) CacheTag() string                     { return rs.Pin().CacheTag() }

func (rs *RemoteStore) Since(epoch uint64, tag string) ([]store.Mutation, bool) {
	return rs.Pin().Since(epoch, tag)
}

func (rs *RemoteStore) FilterTable() (*prefilter.Table, bool) { return rs.Pin().FilterTable() }

func (rs *RemoteStore) ProbeAll(ctx context.Context, probes []store.Probe, riders int, out [][]int) ([][]int, error) {
	return rs.Pin().ProbeAll(ctx, probes, riders, out)
}

// Save is unsupported: replicas persist their own layouts server-side.
func (rs *RemoteStore) Save(dir string) error {
	return fmt.Errorf("rpcstore: save to %s: %w", dir, ErrRemoteSave)
}

// InsertGraph broadcasts the insert to every endpoint in lockstep: each
// replica applies it under a CAS on the coordinator's mirrored epoch, and
// the store's deterministic id assignment (next free slot) makes every
// replica agree on the new id without coordination. If any endpoint cannot
// be reached within the mutation's retry budget the mutation fails and the
// mirror does not advance — replicas that already applied keep the old
// epoch answerable in their pin ring, so reads stay consistent while the
// operator repairs the topology.
func (rs *RemoteStore) InsertGraph(g *graph.Graph) (int, error) {
	if g == nil || g.NumNodes() == 0 {
		return 0, fmt.Errorf("rpcstore: insert: %w", store.ErrBadGraph)
	}
	blob, err := EncodeGraph(g)
	if err != nil {
		return 0, err
	}
	rs.mutMu.Lock()
	defer rs.mutMu.Unlock()
	sn := rs.mirror.Load().snap
	wantID := sn.numGraphs
	req := &Msg{Op: OpInsert, Epoch: sn.epoch, GraphBlobs: [][]byte{blob}}
	var tag string
	for ep := range rs.endpoints {
		reply, err := rs.mutateEndpoint(ep, req, wantID)
		if err != nil {
			return 0, fmt.Errorf("rpcstore: insert on %s: %w", rs.endpoints[ep], err)
		}
		tag = reply.Tag
	}
	g.ID = wantID
	rs.graphMu.Lock()
	rs.graphs[wantID] = g
	rs.graphMu.Unlock()
	live := make([]int, 0, len(sn.live)+1)
	live = append(live, sn.live...)
	live = append(live, wantID) // ids strictly increase: append keeps order
	var tab *prefilter.Table
	if t := sn.filter.Peek(); t != nil {
		tab = t.Insert(wantID, g)
	}
	rs.publishMirror(sn.epoch+1, tag, sn.numGraphs+1, live, tab,
		sn.hist.Add(store.Mutation{Epoch: sn.epoch, Tag: sn.tag, Insert: true, ID: wantID}))
	return wantID, nil
}

// DeleteGraph broadcasts the tombstone, with the same lockstep contract as
// InsertGraph.
func (rs *RemoteStore) DeleteGraph(id int) error {
	rs.mutMu.Lock()
	defer rs.mutMu.Unlock()
	sn := rs.mirror.Load().snap
	i := sort.SearchInts(sn.live, id)
	if i >= len(sn.live) || sn.live[i] != id {
		return fmt.Errorf("rpcstore: delete %d: %w", id, store.ErrNoSuchGraph)
	}
	req := &Msg{Op: OpDelete, Epoch: sn.epoch, GraphID: id}
	var tag string
	for ep := range rs.endpoints {
		reply, err := rs.mutateEndpoint(ep, req, id)
		if err != nil {
			return fmt.Errorf("rpcstore: delete %d on %s: %w", id, rs.endpoints[ep], err)
		}
		tag = reply.Tag
	}
	live := make([]int, 0, len(sn.live)-1)
	live = append(live, sn.live[:i]...)
	live = append(live, sn.live[i+1:]...)
	var tab *prefilter.Table
	if t := sn.filter.Peek(); t != nil {
		tab = t.Delete(id)
	}
	rs.publishMirror(sn.epoch+1, tag, sn.numGraphs, live, tab,
		sn.hist.Add(store.Mutation{Epoch: sn.epoch, Tag: sn.tag, ID: id}))
	return nil
}

// mutateEndpoint applies one mutation to one endpoint, retrying transport
// and stale-epoch failures with backoff. A codeEpochConflict reply whose
// epoch equals the expected post-mutation epoch means a previous attempt
// already landed (the reply to it was lost) — idempotent success, verified
// against the deterministic id. The backoff ends with the store (Close).
func (rs *RemoteStore) mutateEndpoint(ep int, req *Msg, wantID int) (*Msg, error) {
	attempts := (rs.maxRetries + 1) * 3 // mutations retry harder than reads
	var lastErr error
	for a := 0; a < attempts; a++ {
		if a > 0 {
			t := time.NewTimer(time.Duration(a) * rs.backoff)
			select {
			case <-t.C:
			case <-rs.life.Done():
				t.Stop()
				return nil, fmt.Errorf("rpcstore: store closed during retry backoff: %w", lastErr)
			}
		}
		reply, err := rs.attempt(rs.life, ep, req, false)
		if err == nil {
			if reply.GraphID != wantID {
				return nil, fmt.Errorf("rpcstore: replica diverged: assigned id %d, want %d: %w",
					reply.GraphID, wantID, ErrTopology)
			}
			return reply, nil
		}
		var term *terminalError
		if errors.As(err, &term) && term.code == codeEpochConflict {
			if term.epoch == req.Epoch+1 {
				return &Msg{Op: req.Op, Epoch: term.epoch, Tag: term.tag, GraphID: wantID}, nil
			}
			return nil, fmt.Errorf("rpcstore: replica at epoch %d, base %d: %w",
				term.epoch, req.Epoch, ErrTopology)
		}
		lastErr = err
		if errors.As(err, &term) {
			break // other terminal errors do not heal with retries
		}
	}
	return nil, lastErr
}

// ---- wire attempts, retry, hedging ----

// terminalError is a server-reported, non-retryable failure.
type terminalError struct {
	code   int
	epoch  uint64
	tag    string
	detail string
}

func (e *terminalError) Error() string {
	return fmt.Sprintf("server error %d: %s", e.code, e.detail)
}

// staleEpochError is retryable: the reply did not match the pinned epoch.
type staleEpochError struct{ have, want uint64 }

func (e *staleEpochError) Error() string {
	return fmt.Sprintf("stale epoch: reply at %d, pinned %d", e.have, e.want)
}

// attempt performs one wire round trip against one endpoint. checkEpoch
// enforces the reply-epoch consistency contract for epoch-pinned reads.
func (rs *RemoteStore) attempt(ctx context.Context, ep int, req *Msg, checkEpoch bool) (*Msg, error) {
	// The client-side conn fault site: a firing error simulates the
	// connection dropping before the request leaves the coordinator.
	if err := faultinject.Hit(ctx, faultinject.SiteRPCConn); err != nil {
		rs.healthy[ep].Store(false)
		rs.updateHealthGauges()
		return nil, err
	}
	rs.inc(metrics.CounterShardRPCAttempts)
	fail := func(conn net.Conn, err error) (*Msg, error) {
		if conn != nil {
			conn.Close()
		}
		rs.healthy[ep].Store(false)
		rs.updateHealthGauges()
		return nil, err
	}
	conn, err := rs.pools[ep].get()
	if err != nil {
		return fail(nil, err)
	}
	deadline := time.Now().Add(rs.callTimeout)
	if d, ok := ctx.Deadline(); ok && d.Before(deadline) {
		deadline = d
	}
	conn.SetDeadline(deadline)
	m := *req
	m.Seq = rs.seq.Add(1)
	if err := WriteFrame(conn, CodecBinary, &m); err != nil {
		return fail(conn, err)
	}
	reply, _, err := ReadFrame(conn)
	if err != nil {
		return fail(conn, err)
	}
	if reply.Seq != m.Seq {
		return fail(conn, fmt.Errorf("rpcstore: reply seq %d for request %d: %w",
			reply.Seq, m.Seq, ErrBadFrame))
	}
	conn.SetDeadline(time.Time{})
	rs.pools[ep].put(conn)
	if !rs.healthy[ep].Load() {
		rs.healthy[ep].Store(true)
		rs.updateHealthGauges()
	}
	switch {
	case reply.ErrCode == codeStaleEpoch:
		rs.inc(metrics.CounterShardRPCStaleEpoch)
		return nil, &staleEpochError{have: reply.Epoch, want: req.Epoch}
	case reply.ErrCode != codeOK:
		return nil, &terminalError{code: reply.ErrCode, epoch: reply.Epoch, tag: reply.Tag, detail: reply.Error}
	case checkEpoch && reply.Epoch != req.Epoch:
		rs.inc(metrics.CounterShardRPCStaleEpoch)
		return nil, &staleEpochError{have: reply.Epoch, want: req.Epoch}
	}
	return reply, nil
}

func retryable(err error) bool {
	var term *terminalError
	return !errors.As(err, &term)
}

// call is one logical replica-group call: scatter to the group's endpoints
// with hedging and failover inside a round, retry-with-backoff across
// rounds (rotating which endpoint is primary), all under the caller's
// context deadline — the action budget.
func (rs *RemoteStore) call(ctx context.Context, g replicaGroup, req *Msg, checkEpoch bool) (*Msg, error) {
	rs.inc(metrics.CounterShardRPCCalls)
	sp := trace.SpanFromContext(ctx).Child(trace.KindShardRPC)
	sp.Add("shards", int64(len(g.shards)))
	sp.SetAttr("op", req.Op)
	defer sp.End()
	eps := g.eps
	var lastErr error
	for round := 0; round <= rs.maxRetries; round++ {
		if round > 0 {
			rs.inc(metrics.CounterShardRPCRetries)
			sp.Add("retries", 1)
			t := time.NewTimer(time.Duration(round) * rs.backoff)
			select {
			case <-t.C:
			case <-ctx.Done():
				t.Stop()
				rs.inc(metrics.CounterShardRPCErrors)
				return nil, ctx.Err()
			}
		}
		order := make([]int, 0, len(eps))
		for i := range eps {
			order = append(order, eps[(i+round)%len(eps)])
		}
		reply, err := rs.callRound(ctx, sp, order, req, checkEpoch)
		if err == nil {
			return reply, nil
		}
		lastErr = err
		if ctx.Err() != nil || !retryable(err) {
			break
		}
	}
	rs.inc(metrics.CounterShardRPCErrors)
	return nil, fmt.Errorf("rpcstore: shards %v: %v: %w", g.shards, lastErr, store.ErrShardUnavailable)
}

type attemptResult struct {
	reply  *Msg
	err    error
	hedged bool // the hedge timer launched this attempt
}

// callRound tries the ordered endpoints once each: the primary first, a
// hedge to the next endpoint if the primary is silent past the hedge
// delay, and immediate failover on failures. First success wins.
func (rs *RemoteStore) callRound(ctx context.Context, sp *trace.Span, order []int, req *Msg, checkEpoch bool) (*Msg, error) {
	if len(order) == 1 || rs.hedgeDelay <= 0 {
		var lastErr error
		for _, ep := range order {
			reply, err := rs.attempt(ctx, ep, req, checkEpoch)
			if err == nil {
				return reply, nil
			}
			lastErr = err
			if ctx.Err() != nil || !retryable(err) {
				break
			}
		}
		return nil, lastErr
	}
	results := make(chan attemptResult, len(order))
	launch := func(ep int, hedged bool) {
		go func() {
			reply, err := rs.attempt(ctx, ep, req, checkEpoch)
			results <- attemptResult{reply: reply, err: err, hedged: hedged}
		}()
	}
	launched := 1
	launch(order[0], false)
	hedge := time.NewTimer(rs.hedgeDelay)
	defer hedge.Stop()
	var lastErr error
	for done := 0; done < launched; {
		select {
		case r := <-results:
			done++
			if r.err == nil {
				// Only an attempt the hedge timer launched is a hedge win;
				// a failover after a failed primary is not.
				if r.hedged {
					rs.inc(metrics.CounterShardRPCHedgeWins)
					sp.Add("hedge_wins", 1)
				}
				return r.reply, nil
			}
			lastErr = r.err
			if !retryable(r.err) {
				return nil, r.err
			}
			if launched < len(order) && ctx.Err() == nil {
				// Failover: the endpoint answered with a failure, so the
				// next replica gets tried immediately, not on the timer.
				launch(order[launched], false)
				launched++
			}
		case <-hedge.C:
			if launched < len(order) {
				rs.inc(metrics.CounterShardRPCHedged)
				sp.Add("hedged", 1)
				launch(order[launched], true)
				launched++
			}
		case <-ctx.Done():
			return nil, ctx.Err()
		}
	}
	return nil, lastErr
}

// anyEndpoint round-robins an unsharded op (lookup, graph fetch) over all
// endpoints with failover. The backoff between rounds ends with the caller's
// context, like call's.
func (rs *RemoteStore) anyEndpoint(ctx context.Context, req *Msg, checkEpoch bool) (*Msg, error) {
	start := int(rs.rr.Add(1)) % len(rs.endpoints)
	var lastErr error
	for round := 0; round <= rs.maxRetries; round++ {
		for i := range rs.endpoints {
			ep := (start + i) % len(rs.endpoints)
			reply, err := rs.attempt(ctx, ep, req, checkEpoch)
			if err == nil {
				return reply, nil
			}
			lastErr = err
			if ctx.Err() != nil || !retryable(err) {
				return nil, lastErr
			}
		}
		if round < rs.maxRetries {
			t := time.NewTimer(time.Duration(round+1) * rs.backoff)
			select {
			case <-t.C:
			case <-ctx.Done():
				t.Stop()
				return nil, lastErr
			}
		}
	}
	return nil, lastErr
}

// fetchGraphs pulls the given graphs into the client cache in batches.
func (rs *RemoteStore) fetchGraphs(ctx context.Context, ids []int) error {
	for len(ids) > 0 {
		batch := ids
		if len(batch) > graphFetchBatch {
			batch = batch[:graphFetchBatch]
		}
		ids = ids[len(batch):]
		reply, err := rs.anyEndpoint(ctx, &Msg{Op: OpGraphs, IDs: PackIDs(batch)}, false)
		if err != nil {
			return err
		}
		if len(reply.GraphBlobs) != len(batch) {
			return fmt.Errorf("rpcstore: fetch: %d blobs for %d ids: %w",
				len(reply.GraphBlobs), len(batch), ErrBadFrame)
		}
		rs.graphMu.Lock()
		for i, blob := range reply.GraphBlobs {
			if len(blob) == 0 {
				continue // tombstoned server-side since we pinned; never resurrected
			}
			g, err := DecodeGraph(blob)
			if err != nil {
				rs.graphMu.Unlock()
				return err
			}
			rs.graphs[batch[i]] = g
		}
		rs.graphMu.Unlock()
	}
	return nil
}

// cachedGraph returns the immutable graph for id, fetching it on a cache
// miss (only possible for ids that were tombstoned during Dial's prefetch
// window and resurrected in no snapshot — i.e. effectively never).
func (rs *RemoteStore) cachedGraph(id int) *graph.Graph {
	rs.graphMu.RLock()
	g := rs.graphs[id]
	rs.graphMu.RUnlock()
	if g != nil {
		return g
	}
	ctx, cancel := context.WithTimeout(context.Background(), rs.callTimeout)
	defer cancel()
	if err := rs.fetchGraphs(ctx, []int{id}); err != nil {
		return nil
	}
	rs.graphMu.RLock()
	g = rs.graphs[id]
	rs.graphMu.RUnlock()
	return g
}

// ---- the pinned snapshot ----

// remoteSnap is one pinned epoch of the remote topology: the mirrored live
// universe plus epoch-pinned RPC reads. Graphs are served from the
// client-side cache (immutable per id); Lookup memoizes per snapshot.
type remoteSnap struct {
	rs        *RemoteStore
	epoch     uint64
	tag       string
	hist      store.History
	numGraphs int
	live      []int
	shardIDs  [][]int // live ids split by shard assignment

	lookupMemo sync.Map // canonical code -> [2]int{kind, entry id}
	filter     prefilter.Slot
}

func (sn *remoteSnap) Epoch() uint64    { return sn.epoch }
func (sn *remoteSnap) NumGraphs() int   { return sn.numGraphs }
func (sn *remoteSnap) LiveIDs() []int   { return sn.live }
func (sn *remoteSnap) NumShards() int   { return sn.rs.numShards }
func (sn *remoteSnap) CacheTag() string { return sn.tag }

// Since answers from the broadcasts this coordinator made: it is the
// topology's sole mutator, so they are every mutation since Dial.
func (sn *remoteSnap) Since(epoch uint64, tag string) ([]store.Mutation, bool) {
	if epoch == sn.epoch {
		return nil, tag == sn.tag
	}
	return sn.hist.Since(epoch, tag)
}

// FilterTable is built from the client-side graph cache, which Dial filled
// with every live graph: no RPC.
func (sn *remoteSnap) FilterTable() (*prefilter.Table, bool) {
	return sn.filter.Get(sn.live, sn.Graph)
}

func (sn *remoteSnap) ShardOf(graphID int) int {
	return store.AssignShard(graphID, sn.rs.numShards)
}

func (sn *remoteSnap) Graph(id int) *graph.Graph {
	i := sort.SearchInts(sn.live, id)
	if i >= len(sn.live) || sn.live[i] != id {
		return nil // tombstoned (or out of range) at this epoch
	}
	return sn.rs.cachedGraph(id)
}

// Lookup classifies a canonical code via any replica at the pinned epoch.
// Every shard carries the full vocabulary, so any endpoint answers. On
// failure the sound degradation is KindNone: the fragment is treated as
// unindexed and its candidates verified downstream — never wrong, possibly
// slower, and not memoized so recovery is immediate.
func (sn *remoteSnap) Lookup(code string) (index.Kind, int) {
	if v, ok := sn.lookupMemo.Load(code); ok {
		kv := v.([2]int)
		return index.Kind(kv[0]), kv[1]
	}
	ctx, cancel := context.WithTimeout(context.Background(), sn.rs.callTimeout)
	defer cancel()
	reply, err := sn.rs.anyEndpoint(ctx, &Msg{Op: OpLookup, Epoch: sn.epoch, Frag: code}, true)
	if err != nil {
		return index.KindNone, -1
	}
	sn.lookupMemo.Store(code, [2]int{reply.Kind, reply.EntryID})
	return index.Kind(reply.Kind), reply.EntryID
}

// ProbeAll implements store.Snapshot: the whole batch, riders included,
// goes to every replica group in one OpCandidates request, the groups
// concurrently, and each probe's per-group lists merge into one ascending
// list. A group that cannot answer (every endpoint failed within the
// call's budget) contributes its shards' live ids to every NIF probe, and
// the indexed probes' lists stay nil behind an error wrapping
// store.ErrShardUnavailable. A batch cut short by the caller's context
// returns no list and the context's error.
func (sn *remoteSnap) ProbeAll(ctx context.Context, probes []store.Probe, _ int, out [][]int) ([][]int, error) {
	packed := make([][]int, len(probes))
	for i, p := range probes {
		packed[i] = packProbe(p)
	}
	groups := sn.rs.groups
	parts := make([][][]int, len(groups)) // group -> probe -> ids
	errs := make([]error, len(groups))
	var wg sync.WaitGroup
	for gi := range groups {
		wg.Add(1)
		go func() {
			defer wg.Done()
			parts[gi], errs[gi] = sn.probeGroup(ctx, groups[gi], packed)
		}()
	}
	wg.Wait()
	err := errors.Join(errs...)
	if err != nil && ctx.Err() != nil {
		return out[:0], ctx.Err()
	}
	out = slices.Grow(out[:0], len(probes))[:len(probes)]
	clear(out)
	per := make([][]int, 0, sn.rs.numShards)
	for i, p := range probes {
		if err != nil && p.Kind.Indexed() {
			continue
		}
		per = per[:0]
		for gi, g := range groups {
			if errs[gi] == nil {
				per = append(per, parts[gi][i])
				continue
			}
			for _, sid := range g.shards {
				per = append(per, sn.shardIDs[sid])
			}
		}
		out[i] = store.MergeSorted(per)
	}
	return out, err
}

// probeGroup sends the packed batch to one replica group and unpacks the
// reply. Every candidate id must be a graph id of the pinned epoch, in
// ascending order: the coordinator serves Rfree ids as answers and loads
// candidate lists into bitsets sized by NumGraphs, so a reply that breaks
// this is malformed and the group counts as unanswered.
func (sn *remoteSnap) probeGroup(ctx context.Context, g replicaGroup, probes [][]int) ([][]int, error) {
	reply, err := sn.rs.call(ctx, g, &Msg{Op: OpCandidates, Epoch: sn.epoch, Shards: g.shards, Probes: probes}, true)
	if err != nil {
		return nil, err
	}
	if len(reply.Parts) != len(probes) {
		return nil, fmt.Errorf("rpcstore: shards %v: %d parts for %d probes: %w (%w)",
			g.shards, len(reply.Parts), len(probes), store.ErrShardUnavailable, ErrBadFrame)
	}
	lists := make([][]int, len(probes))
	for i, pages := range reply.Parts {
		lists[i] = UnpackIDs(pages)
		next := 0 // the smallest id the list may hold next
		for _, id := range lists[i] {
			if id < next || id >= sn.numGraphs {
				return nil, fmt.Errorf("rpcstore: shards %v: candidate id %d out of order or outside [0, %d): %w (%w)",
					g.shards, id, sn.numGraphs, store.ErrShardUnavailable, ErrBadFrame)
			}
			next = id + 1
		}
	}
	return lists, nil
}

// ---- connection pool ----

type connPool struct {
	addr        string
	dialTimeout time.Duration
	mu          sync.Mutex
	free        []net.Conn
	closed      bool
}

func (p *connPool) get() (net.Conn, error) {
	p.mu.Lock()
	if n := len(p.free); n > 0 {
		c := p.free[n-1]
		p.free = p.free[:n-1]
		p.mu.Unlock()
		return c, nil
	}
	closed := p.closed
	p.mu.Unlock()
	if closed {
		return nil, fmt.Errorf("rpcstore: pool for %s closed", p.addr)
	}
	return net.DialTimeout("tcp", p.addr, p.dialTimeout)
}

func (p *connPool) put(c net.Conn) {
	p.mu.Lock()
	if p.closed || len(p.free) >= poolConnsPerHost {
		p.mu.Unlock()
		c.Close()
		return
	}
	p.free = append(p.free, c)
	p.mu.Unlock()
}

func (p *connPool) closeAll() {
	p.mu.Lock()
	p.closed = true
	for _, c := range p.free {
		c.Close()
	}
	p.free = nil
	p.mu.Unlock()
}
