package main

import (
	"context"
	_ "embed"
	"encoding/json"
	"fmt"
	"runtime"
	"time"

	"prague/internal/dataset"
	"prague/internal/graph"
	"prague/internal/index"
	"prague/internal/metrics"
	"prague/internal/mining"
	"prague/internal/rpcstore"
	"prague/internal/service"
	"prague/internal/store"
	"prague/internal/workload"
)

// Index parameters shared by every workload (praguecli's and shardserver's
// defaults) and the paper's distance threshold.
const (
	alpha   = 0.1
	beta    = 4
	maxFrag = 5
	sigma   = 3
	shards  = 4

	defaultSeconds = 20
)

type layout int

const (
	layoutMono    layout = iota // store.NewMem
	layoutSharded               // store.NewSharded(…, 4), in process
	layoutRemote                // rpcstore.Dial to two loopback servers, shards {0,1} and {2,3}
)

// spec is one workload: a fixed database, a fixed query pool, a topology and
// the size of a round. The database and the pool are the benchmark's fixtures
// (as AIDS and Q1–Q8 are the paper's); -seed decides the op schedule.
type spec struct {
	name             string
	data             dataset.MoleculeOptions
	pool             func(db []*graph.Graph) ([]workload.Query, error)
	layout           layout
	cacheBytes       int64 // candidate cache budget, 0 = off
	mutateEvery      int   // an insert+delete pair before every n-th session, 0 = none
	sessionsPerRound int
	readEvery        int // sessions between two readings of the host speed: about 100 ms of work
	// rounds is the number of rounds at the default -seconds. It is sized on
	// the 2-CPU reference host: the four timed parts average the default, and
	// the expensive topologies take the larger share.
	rounds int
}

var monoData = dataset.MoleculeOptions{NumGraphs: 1500, Seed: 42}

var specs = []*spec{
	{name: "formulate-mono", data: monoData, pool: monoPool, layout: layoutMono,
		sessionsPerRound: 200, readEvery: 50, rounds: 40},
	{name: "verify-comb", data: dataset.MoleculeOptions{NumGraphs: 1000, Seed: 42, MeanNodes: 28}, pool: combPool,
		layout: layoutMono, sessionsPerRound: 200, readEvery: 8, rounds: 11},
	{name: "remote-2srv", data: monoData, pool: monoPool, layout: layoutRemote,
		sessionsPerRound: 200, readEvery: 8, rounds: 10},
	{name: "ingest-shard4", data: monoData, pool: monoPool, layout: layoutSharded, cacheBytes: 8 << 20,
		mutateEvery: 8, sessionsPerRound: 200, readEvery: 24, rounds: 28},
}

// speedWeights are the parts of the speedometer's kernel the workload's host
// speed is read from.
func (s *spec) speedWeights() [3]float64 {
	if s.layout == layoutRemote {
		return weightsRemote
	}
	return weightsInProcess
}

func specByName(name string) *spec {
	for _, s := range specs {
		if s.name == name {
			return s
		}
	}
	return nil
}

// roundsFor turns the contract's -seconds into a fixed amount of work.
func (s *spec) roundsFor(seconds int) int {
	if n := (s.rounds*seconds + defaultSeconds/2) / defaultSeconds; n > minRounds {
		return n
	}
	return minRounds
}

//go:embed queries.json
var monoPoolJSON []byte

// monoPool is the formulate-mono traffic in zipf rank order: 2 best-case and
// 4 worst-case similarity queries and 6 containment queries of 4/6/8 edges,
// ranked so that the popular half of the zipf mass is similarity traffic
// (design rule 6). Finding them takes 6 s, so the result is committed as
// queries.json; TestMonoPoolIsTheSearchResult searches again and compares,
// and warm-up fails the run if a query no longer has the class it was picked
// for.
func monoPool([]*graph.Graph) ([]workload.Query, error) {
	var qs []workload.Query
	if err := json.Unmarshal(monoPoolJSON, &qs); err != nil {
		return nil, fmt.Errorf("queries.json: %w", err)
	}
	return qs, nil
}

// combPool is the verify-comb traffic: heteroatom combs (a carbon path with
// one N or O leaf per position, as in filter_bench_test.go), whose
// sub-patterns have no support so the index cannot prune them, and containment
// queries larger than any mined fragment, whose final fragment is therefore a
// NIF and has to be verified graph by graph.
func combPool(db []*graph.Graph) ([]workload.Query, error) {
	comb := func(name, leaf string, n int) workload.Query {
		q := workload.Query{Name: name, Class: "worst"}
		for i := 0; i < n; i++ {
			q.NodeLabels = append(q.NodeLabels, "C")
		}
		for i := 0; i < n; i++ {
			q.NodeLabels = append(q.NodeLabels, leaf)
		}
		for i := 1; i < n; i++ {
			q.Edges = append(q.Edges, [2]int{i - 1, i})
		}
		for i := 0; i < n; i++ {
			q.Edges = append(q.Edges, [2]int{i, n + i})
		}
		return q
	}
	path := func(name string, n int) workload.Query {
		q := workload.Query{Name: name, Class: "containment"}
		for i := 0; i <= n; i++ {
			q.NodeLabels = append(q.NodeLabels, "C")
		}
		for i := 1; i <= n; i++ {
			q.Edges = append(q.Edges, [2]int{i - 1, i})
		}
		return q
	}
	nif, err := workload.ContainmentQueries(db, 3, []int{maxFrag + 2, maxFrag + 3, maxFrag + 4}, 7)
	if err != nil {
		return nil, err
	}
	// The rank order centres the p50s and the SRT p95 inside one query's
	// samples (design rule 6). Of 200 sessions a round, sorted by SRT: 58 below
	// 4 ms, cpath8 19 at 5 ms, cpath11 89 at 7 ms (ranks 78–166: the p50), the
	// three plain combs 9 + 7 + 12 at 30–36 ms (comb-o6 at ranks 183–194: the
	// p95), comb-n6 modified 6 at 44 ms. Of 100 modifications: cpath8 19 at
	// 10 µs, cpath11 and three small ones 62 at 13–25 µs (the p50 at its
	// middle; with comb-n6 at rank 2 it sat on that cluster's upper slope and
	// moved 40 % between runs), comb-o6 and comb-n6 18 at 55 µs.
	return []workload.Query{
		path("cpath11", 11), path("cpath8", 8), comb("comb-o6", "O", 6), comb("comb-n5", "N", 5), comb("comb-n6", "N", 6), nif[1], nif[2],
	}, nil
}

// setupTimes is where one set-up spent its time.
type setupTimes struct {
	mine, build, store, dial, service, total time.Duration
}

// topology is one built system: the service under test, the store below it
// and, on the remote layout, the servers and the coordinator's connection.
type topology struct {
	svc     *service.Service
	st      store.Store
	idx     *index.Set
	reg     *metrics.Registry
	servers []*rpcstore.Server
	remote  *rpcstore.RemoteStore
	times   setupTimes
}

// close stops whatever part of the topology was built.
func (t *topology) close() {
	if t.svc != nil {
		t.svc.Close()
	}
	if t.remote != nil {
		t.remote.Close()
	}
	for _, srv := range t.servers {
		srv.Close()
	}
}

// setup builds the workload's system from the database: everything a
// deployment pays before the first session. via, when set, maps a server
// address to the address the coordinator dials instead (the byte-counting
// forwarder of the traced run).
func setup(sp *spec, db []*graph.Graph, traced bool, via func(addr string) (string, error)) (*topology, error) {
	t := &topology{reg: metrics.NewRegistry()}
	t0 := time.Now()
	mined, err := mining.Mine(db, mining.Options{MinSupportRatio: alpha, MaxSize: maxFrag, IncludeZeroSupportPairs: true})
	if err != nil {
		return nil, err
	}
	t1 := time.Now()
	if t.idx, err = index.Build(mined, alpha, beta); err != nil {
		return nil, err
	}
	t2 := time.Now()
	t3 := t2
	switch sp.layout {
	case layoutMono:
		t.st, err = store.NewMem(db, t.idx)
		t3 = time.Now()
	case layoutSharded:
		t.st, err = store.NewSharded(db, t.idx, shards)
		t3 = time.Now()
	case layoutRemote:
		var addrs []string
		for _, serve := range [][]int{{0, 1}, {2, 3}} {
			// One replica per server: a shared store object would apply
			// each broadcast mutation twice.
			var replica *store.Sharded
			if replica, err = store.NewSharded(db, t.idx, shards); err != nil {
				break
			}
			srv := rpcstore.NewServer(replica, rpcstore.WithServeShards(serve...))
			if err = srv.Listen("127.0.0.1:0"); err != nil {
				break
			}
			t.servers = append(t.servers, srv)
			addr := srv.Addr().String()
			if via != nil {
				if addr, err = via(addr); err != nil {
					break
				}
			}
			addrs = append(addrs, addr)
		}
		t3 = time.Now()
		if err == nil {
			// One server per shard group and a 30 s call timeout: the hedge
			// timer has no replica to fire at and no call can time out.
			t.remote, err = rpcstore.Dial(context.Background(), addrs, rpcstore.WithCallTimeout(30*time.Second))
			t.st = t.remote
		}
	}
	if err != nil {
		t.close()
		return nil, err
	}
	t4 := time.Now()
	opts := []service.Option{
		service.WithMetrics(t.reg), service.WithCandidateCache(sp.cacheBytes), service.WithSessionTTL(0),
		service.WithSigma(sigma), service.WithVerifyWorkers(runtime.GOMAXPROCS(0)),
	}
	if traced {
		opts = append(opts, service.WithTracing(true))
	}
	if t.svc, err = service.NewFromStore(t.st, opts...); err != nil {
		t.close()
		return nil, err
	}
	t5 := time.Now()
	t.svc.Tracer().SetEnabled(false) // warm-up is untraced; tracedRun switches it on (nil-safe)
	t.times = setupTimes{mine: t1.Sub(t0), build: t2.Sub(t1), store: t3.Sub(t2), dial: t4.Sub(t3), service: t5.Sub(t4), total: t5.Sub(t0)}
	return t, nil
}
