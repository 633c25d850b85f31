// Network chaos: seeded partition schedules over a real distributed
// topology. Each schedule boots four loopback shard servers — two shards,
// two replicas each, every server holding its own store replica and its own
// fault injector — dials a RemoteStore over them, and drives the scripted
// chaos workload through a service built on that remote store while the
// network misbehaves: coordinator-side connection drops, slow replicas that
// hedging must race, full partitions of one shard, stale-epoch replies, and
// dead replicas the client must fail over around. Some schedules stream
// online mutations through the coordinator's lockstep broadcast and hold
// every Run to the epoch-consistency contract against a pinned-epoch oracle.
//
// The contract is the fault-chaos contract extended over the wire:
//
//   - no deadlock (watchdog-bounded, with hedged requests keeping probes
//     live past a slow replica),
//   - every Run answer is complete, flagged Truncated with sound bounds, or
//     a typed error (a partitioned shard surfaces as ErrShardUnavailable,
//     never as a silently wrong answer); latency-only schedules accept no
//     error at all,
//   - a schedule with one healthy replica per shard degrades nothing: the
//     client fails over and every answer stays StageFull,
//   - after all injectors are disarmed, every session answers exactly again,
//   - server replicas end every schedule in lockstep with the coordinator.
package chaostest

import (
	"context"
	"fmt"
	"math/rand"
	"testing"
	"time"

	"prague/internal/faultinject"
	"prague/internal/metrics"
	"prague/internal/rpcstore"
	"prague/internal/service"
	"prague/internal/store"
)

// QuickNetwork is the configuration run under plain `go test` (and `-race`
// in the verification gate): 50 seeded partition schedules cycling six
// network fault families.
func QuickNetwork() Config {
	return Config{Seed: 29, Schedules: 50, Sessions: 3, Steps: 8, DBSize: 36, Sigma: 2, Mutations: 12}
}

// NetworkTotals aggregates what the network chaos observed, so callers can
// assert every fault family was actually exercised end to end.
type NetworkTotals struct {
	Runs        int64 // checked Run invocations
	Degraded    int64 // runs that answered below StageFull
	MutatedRuns int64 // runs that pinned a post-mutation epoch
	Mutations   int64 // mutations committed through the coordinator
	FaultsFired int64 // network fault rules that fired (client + servers)
	Hedged      int64 // hedge requests fired to a replica
	HedgeWins   int64 // calls answered by the hedge, not the primary
	Retries     int64 // backoff retry rounds taken
	RPCErrors   int64 // calls that exhausted every endpoint (typed degradation)
	StaleEpoch  int64 // corrupted replies caught by the epoch-consistency check
}

// Network scenario kinds, cycled by schedule index.
const (
	netConnDrop  = iota // coordinator-side connection drops; retries absorb them
	netSlowShard        // one slow replica per shard; hedging must keep probes live
	netPartition        // both replicas of one shard drop everything: complete-or-typed
	netStale            // servers reply with corrupted epoch tags; client must reject
	netFailover         // one dead replica per shard; answers must stay StageFull
	netMutate           // latency-only chaos plus online mutations: epoch consistency
	netKinds
)

// netSchedule is one deterministic network chaos scenario: which rules are
// armed on the coordinator's injector and on each of the four server
// injectors.
type netSchedule struct {
	kind       int
	client     map[faultinject.Site]faultinject.Rule
	servers    [4]map[faultinject.Site]faultinject.Rule
	cacheBytes int64
}

func (sc netSchedule) String() string {
	armed := 0
	for _, rules := range sc.servers {
		armed += len(rules)
	}
	return fmt.Sprintf("kind=%d client=%d servers=%d cache=%d", sc.kind, len(sc.client), armed, sc.cacheBytes)
}

// genNetSchedule derives schedule i deterministically. Servers 0 and 1
// replicate shard 0; servers 2 and 3 replicate shard 1.
func genNetSchedule(i int, r *rand.Rand) netSchedule {
	sc := netSchedule{
		kind:       i % netKinds,
		client:     map[faultinject.Site]faultinject.Rule{},
		cacheBytes: 1 << 20,
	}
	for j := range sc.servers {
		sc.servers[j] = map[faultinject.Site]faultinject.Rule{}
	}
	if r.Intn(3) == 0 {
		sc.cacheBytes = 0 // exercise the uncached remote paths too
	}
	switch sc.kind {
	case netConnDrop:
		sc.client[faultinject.SiteRPCConn] = faultinject.Rule{Every: 2 + r.Intn(3), Err: true}
	case netSlowShard:
		// Slow down each shard's FIRST endpoint: the client's retry rotation
		// makes endpoint 0 of a shard the round-0 primary for every call, so
		// arming the primaries guarantees the hedge timer races a slow primary
		// (a slow second replica would only ever be the hedge target itself).
		lat := time.Duration(10+r.Intn(25)) * time.Millisecond
		sc.servers[0][faultinject.SiteRPCServe] = faultinject.Rule{Every: 1, Latency: lat}
		sc.servers[2][faultinject.SiteRPCServe] = faultinject.Rule{Every: 1, Latency: lat}
	case netPartition:
		s := r.Intn(2)
		sc.servers[2*s][faultinject.SiteRPCServe] = faultinject.Rule{Every: 1, Err: true}
		sc.servers[2*s+1][faultinject.SiteRPCServe] = faultinject.Rule{Every: 1, Err: true}
	case netStale:
		sc.servers[r.Intn(4)][faultinject.SiteRPCEpoch] = faultinject.Rule{Every: 2 + r.Intn(2), Err: true}
		sc.servers[r.Intn(4)][faultinject.SiteRPCEpoch] = faultinject.Rule{Every: 2 + r.Intn(3), Err: true}
	case netFailover:
		sc.servers[r.Intn(2)][faultinject.SiteRPCServe] = faultinject.Rule{Every: 1, Err: true}
		sc.servers[2+r.Intn(2)][faultinject.SiteRPCServe] = faultinject.Rule{Every: 1, Err: true}
	default: // netMutate: latency-only chaos so every mutation commits
		sc.client[faultinject.SiteRPCConn] = faultinject.Rule{
			Every: 1 + r.Intn(2), Latency: time.Duration(200+r.Intn(600)) * time.Microsecond,
		}
		sc.servers[r.Intn(4)][faultinject.SiteRPCServe] = faultinject.Rule{
			Every: 2, Latency: time.Duration(1+r.Intn(3)) * time.Millisecond,
		}
	}
	return sc
}

// netCluster is one booted remote topology: four loopback servers (two
// shards, two replicas each), each with its own store replica and injector,
// and the RemoteStore dialed over them.
type netCluster struct {
	reps    []store.Store
	servers []*rpcstore.Server
	injs    []*faultinject.Injector
	remote  *rpcstore.RemoteStore
}

// netServe maps server index to the shard subset it serves.
var netServe = [4][]int{{0}, {0}, {1}, {1}}

func bootNetCluster(t *testing.T, fx *Fixture, reg *metrics.Registry) *netCluster {
	t.Helper()
	c := &netCluster{}
	addrs := make([]string, 0, len(netServe))
	for j := range netServe {
		rep, err := store.NewSharded(fx.DB, fx.Idx, 2)
		if err != nil {
			t.Fatal(err)
		}
		inj := faultinject.New()
		srv := rpcstore.NewServer(rep,
			rpcstore.WithServeShards(netServe[j]...),
			rpcstore.WithServerInjector(inj))
		if err := srv.Listen("127.0.0.1:0"); err != nil {
			t.Fatalf("netcluster: server %d: %v", j, err)
		}
		c.reps = append(c.reps, rep)
		c.injs = append(c.injs, inj)
		c.servers = append(c.servers, srv)
		addrs = append(addrs, srv.Addr().String())
	}
	rs, err := rpcstore.Dial(context.Background(), addrs, rpcstore.WithClientMetrics(reg))
	if err != nil {
		c.close()
		t.Fatalf("netcluster: dial: %v", err)
	}
	c.remote = rs
	return c
}

func (c *netCluster) close() {
	if c.remote != nil {
		c.remote.Close()
	}
	for _, srv := range c.servers {
		srv.Close()
	}
}

// RunNetwork executes cfg.Schedules network chaos schedules as subtests and
// returns the aggregate totals. Any invariant violation fails t.
func RunNetwork(t *testing.T, cfg Config) NetworkTotals {
	t.Helper()
	var tot NetworkTotals
	eachSchedule(t, cfg, "network-schedule", func(t *testing.T, fx *Fixture, i int) {
		runNetworkSchedule(t, cfg, fx, i, &tot)
	})
	return tot
}

// runNetworkSchedule boots one topology, arms one network fault scenario,
// drives the scripted workload (with the mutator on netMutate), disarms
// everything and requires exact recovery — and, under mutation, replica
// lockstep.
func runNetworkSchedule(t *testing.T, cfg Config, fx *Fixture, i int, tot *NetworkTotals) {
	t.Helper()
	r := rand.New(rand.NewSource(cfg.Seed*1000 + int64(i)))
	sc := genNetSchedule(i, r)

	reg := metrics.NewRegistry()
	cl := bootNetCluster(t, fx, reg)
	defer cl.close()
	// Server rules arm only after Dial: the hello handshake and the graph
	// prefetch run over a healthy network, like a deploy that degrades later.
	for j, rules := range sc.servers {
		for site, rule := range rules {
			cl.injs[j].Set(site, rule)
		}
	}
	inj := faultinject.New()
	for site, rule := range sc.client {
		inj.Set(site, rule)
	}

	svc, err := service.NewFromStore(cl.remote,
		service.WithSigma(cfg.Sigma),
		service.WithVerifyWorkers(2),
		service.WithMetrics(reg),
		service.WithCandidateCache(sc.cacheBytes),
		service.WithFaultInjection(inj),
	)
	if err != nil {
		t.Fatal(err)
	}
	defer svc.Close()

	w := workload{svc: svc, st: cl.remote, fx: fx, mix: sessionMix, typed: failing(sc.client) || failing(sc.servers[:]...)}
	if sc.kind == netMutate {
		w.mutations = cfg.Mutations
	}
	w.disarm = func() {
		inj.Disarm()
		for _, sinj := range cl.injs {
			sinj.Disarm()
		}
	}
	got, ok := w.run(t, cfg, i, sc)
	if !ok {
		return
	}
	// Lockstep: after the stream, every server replica must hold exactly the
	// coordinator's state — same epoch, same content-derived cache tag.
	for j, rep := range cl.reps {
		if rep.Epoch() != cl.remote.Epoch() || rep.CacheTag() != cl.remote.CacheTag() {
			t.Errorf("network schedule %d: replica %d diverged: (%d, %s) vs coordinator (%d, %s)",
				i, j, rep.Epoch(), rep.CacheTag(), cl.remote.Epoch(), cl.remote.CacheTag())
		}
	}

	snap := reg.Snapshot()
	st := NetworkTotals{
		Runs:        got.runs,
		Degraded:    got.degraded,
		MutatedRuns: got.mutatedRuns,
		Mutations:   got.mutations,
		FaultsFired: inj.Fired(faultinject.SiteRPCConn),
		Hedged:      snap.Counters[metrics.CounterShardRPCHedged],
		HedgeWins:   snap.Counters[metrics.CounterShardRPCHedgeWins],
		Retries:     snap.Counters[metrics.CounterShardRPCRetries],
		RPCErrors:   snap.Counters[metrics.CounterShardRPCErrors],
		StaleEpoch:  snap.Counters[metrics.CounterShardRPCStaleEpoch],
	}
	for _, sinj := range cl.injs {
		st.FaultsFired += sinj.Fired(faultinject.SiteRPCServe) + sinj.Fired(faultinject.SiteRPCEpoch)
	}

	// Scenario-specific guarantees on top of the generic contract.
	switch sc.kind {
	case netSlowShard:
		// Hedging liveness: the healthy replica must have been raced at
		// least once, and racing it must keep every answer exact — a slow
		// replica is a latency problem, never a correctness one.
		if st.Hedged == 0 {
			t.Errorf("schedule %d (%v): slow replicas armed but no hedge request fired", i, sc)
		}
		if st.Degraded != 0 || st.RPCErrors != 0 {
			t.Errorf("schedule %d (%v): slow replicas degraded answers (degraded=%d rpcErrors=%d); hedging should have absorbed them",
				i, sc, st.Degraded, st.RPCErrors)
		}
	case netFailover:
		// With one healthy replica per shard, failover must keep every call
		// answerable: no call may exhaust its endpoints, and no Run may
		// degrade below StageFull.
		if st.Degraded != 0 || st.RPCErrors != 0 {
			t.Errorf("schedule %d (%v): replica failover leaked failures (degraded=%d rpcErrors=%d)",
				i, sc, st.Degraded, st.RPCErrors)
		}
		fired := int64(0)
		for _, sinj := range cl.injs {
			fired += sinj.Fired(faultinject.SiteRPCServe)
		}
		if fired == 0 {
			t.Errorf("schedule %d (%v): dead replicas armed but never hit — failover not exercised", i, sc)
		}
	}
	tot.add(st)
}

// add folds one schedule's totals into the run's.
func (t *NetworkTotals) add(o NetworkTotals) {
	t.Runs += o.Runs
	t.Degraded += o.Degraded
	t.MutatedRuns += o.MutatedRuns
	t.Mutations += o.Mutations
	t.FaultsFired += o.FaultsFired
	t.Hedged += o.Hedged
	t.HedgeWins += o.HedgeWins
	t.Retries += o.Retries
	t.RPCErrors += o.RPCErrors
	t.StaleEpoch += o.StaleEpoch
}
