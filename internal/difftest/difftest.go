// Package difftest is the differential correctness harness: it generates
// random labeled databases and random edit scripts, drives the PRAGUE engine
// through each script five times — monolithic and hash-sharded stores, each
// with the shared candidate cache enabled and disabled, plus a RemoteStore
// evaluating the sharded layout over in-process loopback shard servers — and
// requires every Run answer to be set-equal to the index-free naivescan
// oracle (Definition 3 by construction). On top of the oracle check, the
// sharded variants must be byte-identical to their monolithic twins and the
// remote variant byte-identical to its local sharded twin (same mode, same
// ids, same distances, same order): sharding is a layout choice and the
// network is a transport choice — never a semantic one.
//
// The mutation suite is the same runner with online mutation in its op mix:
// every InsertGraph/DeleteGraph is applied to the monolithic store, the
// sharded store and the RemoteStore (which broadcasts it to two independent
// server-side replicas) in lockstep, asserting they assign the same ids and
// publish the same epochs. The oracle re-enumerates the sharded store's live
// graphs on every query, so an insert that lands in the wrong shard, a
// delete that leaves a stale id in an index list, a cache entry carried
// wrongly across an epoch change, or a replica that diverged under the
// broadcast all surface as an oracle mismatch. The cache-on variants must
// carry at least one entry across a mutation, so the carry path stays
// covered.
//
// Cached and uncached variants are deliberately allowed to diverge in
// *mode*: a cached NIF candidate list published by an earlier script can be
// a different sound superset than the one an uncached engine derives (a
// vertex keeps the Φ/Υ of the epoch it was built in), and Rq is not
// monotone under edge addition (a NIF's Φ holds its frequent SPIG parents
// only), so the empty-Rq prompt may fire for one variant and not another.
// Each variant therefore resolves its own choices and is checked against
// the oracle matching its own final mode — containment or similarity. What
// must never differ is the verified answer.
//
// The cache is shared across all scripts of a database, so later scripts
// exercise genuine cross-session reuse (hits on entries a previous script
// published), not just a warm private cache.
//
// The generators here — the label vocabulary, RandomGraph, RandomDatabase,
// Mutation and the Script op generator — are shared with the chaos harness,
// so both replay the same kinds of canvas actions.
package difftest

import (
	"context"
	"math/rand"
	"testing"

	"prague/internal/candcache"
	"prague/internal/core"
	"prague/internal/naivescan"
	"prague/internal/rpcstore"
	"prague/internal/store"
)

// Config sizes a differential run. The zero value is not runnable; start
// from Quick or Full.
type Config struct {
	Seed          int64
	Databases     int   // distinct random (database, index) pairs
	Scripts       int   // edit scripts per database
	DBSize        int   // data graphs per database
	Sigma         int   // subgraph distance threshold for similarity mode
	CacheBytes    int64 // shared cache budget per database
	OracleWorkers int   // naivescan parallelism
}

// Quick is the scaled-down configuration run under plain `go test`.
func Quick() Config {
	return Config{Seed: 1, Databases: 3, Scripts: 12, DBSize: 40, Sigma: 2, CacheBytes: 1 << 20, OracleWorkers: 2}
}

// Full is the deep configuration behind `-tags slow`: ≥ 1,000 randomized
// comparison cases (each Run of each variant checked against the oracle).
func Full() Config {
	return Config{Seed: 42, Databases: 12, Scripts: 45, DBSize: 45, Sigma: 2, CacheBytes: 4 << 20, OracleWorkers: 4}
}

// Run executes the differential suite and returns how many comparison cases
// it checked. Any divergence from the oracle fails tb immediately.
func Run(tb testing.TB, cfg Config) int { return run(tb, cfg, plainSuite) }

// RunMutation executes the mutation differential suite and returns how many
// comparison cases it checked. It is Run with online InsertGraph/DeleteGraph
// spliced into every script: any divergence — between variants, between the
// stores' epochs or assigned ids, or from the live oracle — fails tb.
func RunMutation(tb testing.TB, cfg Config) int { return run(tb, cfg, mutationSuite) }

// suite is what tells the plain and the mutation suites apart: a seed
// offset, the op mix, and the fewest actions a script draws (up to five
// more are drawn at random).
type suite struct {
	seed     int64
	mix      Mix
	minSteps int
}

var (
	plainSuite    = suite{mix: Mix{Add: 6, Delete: 2, Check: 2}, minSteps: 5}
	mutationSuite = suite{seed: 104729, mix: Mix{Add: 5, Delete: 2, Mutate: 3, Check: 2}, minSteps: 6}
)

func run(tb testing.TB, cfg Config, su suite) int {
	tb.Helper()
	total, mutations, carried := 0, 0, int64(0)
	for d := 0; d < cfg.Databases; d++ {
		seed := cfg.Seed + su.seed + int64(d)*7919
		db, idx := RandomDatabase(tb, seed, cfg.DBSize)
		// Four stores from the same inputs, mutated in lockstep: the
		// monolithic one, the 4-way sharded one, and the two replicas the
		// loopback servers serve, each answering half the sharded layout to
		// force genuine scatter-gather.
		var stores [4]store.Store
		for i := range stores {
			var err error
			if i == 0 {
				stores[i], err = store.NewSharded(db, idx, 1)
			} else {
				stores[i], err = store.NewSharded(db, idx, 4)
			}
			if err != nil {
				tb.Fatal(err)
			}
		}
		mono, sharded, reps := stores[0], stores[1], stores[2:]
		// The oracle scans the sharded store's live graphs (in shard order),
		// so a wrong shard assignment or a stale delete poisons the ground
		// truth and fails loudly.
		oracle, err := naivescan.NewFromStore(sharded, cfg.OracleWorkers)
		if err != nil {
			tb.Fatal(err)
		}
		cache := candcache.New(cfg.CacheBytes, nil)
		if cache == nil {
			tb.Fatalf("difftest: cache budget %d produced no cache", cfg.CacheBytes)
		}
		remote, stop := bootRemote(tb, reps)
		h := &harness{tb: tb, mono: mono, st: sharded, remote: remote, oracle: oracle, cache: cache, sigma: cfg.Sigma}
		for s := 0; s < cfg.Scripts; s++ {
			h.runScript(rand.New(rand.NewSource(seed+int64(s)+1)), su)
		}
		if mono.Epoch() != sharded.Epoch() || remote.Epoch() != sharded.Epoch() {
			tb.Fatalf("difftest: db %d: final epochs diverged: mono %d, sharded %d, remote %d",
				d, mono.Epoch(), sharded.Epoch(), remote.Epoch())
		}
		for i, rep := range reps {
			if rep.Epoch() != sharded.Epoch() || rep.CacheTag() != sharded.CacheTag() {
				tb.Fatalf("difftest: db %d: server replica %d diverged: (%d, %s) vs (%d, %s)",
					d, i, rep.Epoch(), rep.CacheTag(), sharded.Epoch(), sharded.CacheTag())
			}
		}
		stop()
		if got := cache.Stats(); got.Hits+got.Coalesced == 0 && cfg.Scripts > 3 {
			tb.Fatalf("difftest: db %d: %d scripts shared no cache entries (%+v) — the cached variant is not exercising the cache", d, cfg.Scripts, got)
		}
		total += h.cases
		mutations += h.mutations
		carried += cache.Stats().Carried
	}
	if su.mix.Mutate > 0 && mutations == 0 {
		tb.Fatal("difftest: mutation suite applied zero mutations — the scripts are not exercising InsertGraph/DeleteGraph")
	}
	if su.mix.Mutate > 0 && carried == 0 {
		tb.Fatal("difftest: the cache-on variants carried no entry across a mutation — the lockstep is not covering the carry path")
	}
	if su.mix.Mutate > 0 {
		tb.Logf("difftest: %d mutations, %d cache entries carried", mutations, carried)
	}
	return total
}

type harness struct {
	tb        testing.TB
	mono      store.Store // monolithic layout of the database
	st        store.Store // 4-way sharded layout of the same database
	remote    store.Store // coordinator over loopback shard servers
	oracle    *naivescan.Engine
	cache     *candcache.Cache
	sigma     int
	cases     int
	mutations int
}

// Variant layout: indices 0-3 alternate uncached/cached over the monolithic
// and local-sharded stores; index 4 evaluates uncached on the RemoteStore.
// twinOf maps each variant to the one it must answer byte-identically to —
// sharded to monolithic, remote to local-sharded.
var variantNames = [5]string{"cache-off", "cache-on", "shard-off", "shard-on", "remote"}

func twinOf(i int) int { return i - 2 }

// bootRemote starts one loopback shard server per replica of the 4-shard
// layout — the first answering shards 0 and 1, the second 2 and 3 — dials a
// coordinator over them, and returns it with a teardown func. The replicas
// are independent stores, so the coordinator's lockstep mutation broadcast
// is exercised for real.
func bootRemote(tb testing.TB, reps []store.Store) (store.Store, func()) {
	tb.Helper()
	serve := [2][]int{{0, 1}, {2, 3}}
	servers := make([]*rpcstore.Server, 0, len(reps))
	addrs := make([]string, 0, len(reps))
	for i, st := range reps {
		srv := rpcstore.NewServer(st, rpcstore.WithServeShards(serve[i]...))
		if err := srv.Listen("127.0.0.1:0"); err != nil {
			tb.Fatal(err)
		}
		servers = append(servers, srv)
		addrs = append(addrs, srv.Addr().String())
	}
	rs, err := rpcstore.Dial(context.Background(), addrs)
	if err != nil {
		tb.Fatal(err)
	}
	return rs, func() {
		rs.Close()
		for _, s := range servers {
			s.Close()
		}
	}
}

// engines builds the five variants over the harness's stores. Structural
// validity (duplicate edges, disconnecting deletes) is identical across
// variants because all hold the same query graph, so all must accept or
// reject every action together.
func (h *harness) engines() [5]*core.Engine {
	var engines [5]*core.Engine
	for i := range engines {
		src := h.mono
		switch {
		case i == 4:
			src = h.remote
		case i >= 2:
			src = h.st
		}
		e, err := core.NewWithStore(src, h.sigma)
		if err != nil {
			h.tb.Fatal(err)
		}
		if i == 1 || i == 3 {
			// One cache for both local layouts: the store's cache tag
			// namespaces the keys, so monolithic and sharded entries never
			// collide. The remote variant runs uncached.
			e.SetCandidateCache(h.cache)
		}
		engines[i] = e
	}
	return engines
}

// runScript drives one random edit script — formulation actions, checks,
// and, when the mix says so, online mutations — through the five engine
// variants in lockstep. Every engine repins the store's current epoch on its
// next action, so a check after a mutation compares all five against the
// post-mutation ground truth.
func (h *harness) runScript(r *rand.Rand, su suite) {
	engines := h.engines()
	q := engines[0].Query()
	sc := NewScript(r, su.mix)
	addNode := func(label string) int {
		id := engines[0].AddNode(label)
		for _, e := range engines[1:] {
			if got := e.AddNode(label); got != id {
				h.tb.Fatalf("difftest: node ids diverged: %d vs %d", got, id)
			}
		}
		return id
	}
	addNode(sc.Node())
	addNode(sc.Node())

	steps := su.minSteps + r.Intn(6)
	for k := 0; k < steps; k++ {
		switch op := sc.Next(q); op.Kind {
		case Add:
			if op.Fresh != "" {
				if id := addNode(op.Fresh); id != op.V {
					h.tb.Fatalf("difftest: fresh node got id %d, script drew %d", id, op.V)
				}
			}
			h.applyAll(engines, "add", func(e *core.Engine) (core.StepOutcome, error) {
				return e.AddLabeledEdge(op.U, op.V, op.Bond)
			})
		case Delete:
			h.applyAll(engines, "delete", func(e *core.Engine) (core.StepOutcome, error) {
				return e.DeleteEdge(op.Step)
			})
		case Mutate:
			h.mutate(r)
		case Check:
			h.check(engines)
		}
	}
	h.check(engines)
}

// mutate applies one random online mutation to every store in lockstep and
// asserts they stay indistinguishable: same assigned id on insert, same
// acceptance on delete, same epoch afterwards. Inserts clone the graph so
// no store observes another's ownership.
func (h *harness) mutate(r *rand.Rand) {
	stores := [3]store.Store{h.mono, h.remote, h.st}
	names := [3]string{"mono", "remote", "sharded"}
	g, del := Mutation(r, h.st.LiveIDs(), 2)
	var ids [3]int
	for i, st := range stores {
		var err error
		if g != nil {
			ids[i], err = st.InsertGraph(g.Clone())
		} else {
			err = st.DeleteGraph(del)
		}
		if err != nil {
			h.tb.Fatalf("difftest: %s mutation (delete %d): %v", names[i], del, err)
		}
	}
	if ids[0] != ids[2] || ids[1] != ids[2] {
		h.tb.Fatalf("difftest: insert ids diverged: mono %d, remote %d, sharded %d", ids[0], ids[1], ids[2])
	}
	if me, re, se := h.mono.Epoch(), h.remote.Epoch(), h.st.Epoch(); me != se || re != se {
		h.tb.Fatalf("difftest: epochs diverged after mutation: mono %d, sharded %d, remote %d", me, se, re)
	}
	h.mutations++
}

// applyAll applies one formulation action to every variant, requires them
// to agree on acceptance, and resolves the empty-Rq choice per variant.
func (h *harness) applyAll(engines [5]*core.Engine, what string, action func(e *core.Engine) (core.StepOutcome, error)) {
	var errs [5]error
	for i, e := range engines {
		out, err := action(e)
		errs[i] = err
		if err == nil && out.NeedsChoice {
			e.ChooseSimilarity()
		}
	}
	for i := 1; i < len(errs); i++ {
		if (errs[0] == nil) != (errs[i] == nil) {
			h.tb.Fatalf("difftest: %s acceptance diverged: %s err=%v, %s err=%v",
				what, variantNames[0], errs[0], variantNames[i], errs[i])
		}
	}
}

// check runs every variant and compares each against the oracle that
// matches its own final mode. Queries that emptied completely are skipped.
func (h *harness) check(engines [5]*core.Engine) {
	var (
		results [5][]core.Result
		simMode [5]bool
		ran     [5]bool
	)
	for i, e := range engines {
		if e.Query().Size() == 0 {
			continue
		}
		if e.AwaitingChoice() {
			e.ChooseSimilarity()
		}
		got, err := e.Run()
		if err != nil {
			h.tb.Fatalf("difftest: %s: run: %v", variantNames[i], err)
		}
		qg, _ := e.Query().Graph()
		var want []core.Result
		if e.SimilarityMode() {
			res, _ := h.oracle.Similarity(qg, h.sigma)
			for _, w := range res {
				want = append(want, core.Result(w))
			}
		} else {
			ids, _ := h.oracle.Containment(qg)
			for _, id := range ids {
				want = append(want, core.Result{GraphID: id})
			}
		}
		if len(got) != len(want) {
			h.tb.Fatalf("difftest: %s: result count %d, oracle %d (similarity=%v)\nquery: %v\ngot:  %v\nwant: %v",
				variantNames[i], len(got), len(want), e.SimilarityMode(), qg, got, want)
		}
		for j := range want {
			if got[j] != want[j] {
				h.tb.Fatalf("difftest: %s: result %d is %+v, oracle %+v (similarity=%v)\nquery: %v",
					variantNames[i], j, got[j], want[j], e.SimilarityMode(), qg)
			}
		}
		results[i], simMode[i], ran[i] = got, e.SimilarityMode(), true
		h.cases++
	}
	// Layout and transport must be invisible: each sharded variant answers
	// byte-identically to its monolithic twin, and the remote variant to its
	// local-sharded twin, down to the mode it ended in.
	for i := 2; i < len(engines); i++ {
		j := twinOf(i)
		if ran[i] != ran[j] || simMode[i] != simMode[j] {
			h.tb.Fatalf("difftest: %s ran=%v sim=%v, twin %s ran=%v sim=%v",
				variantNames[i], ran[i], simMode[i], variantNames[j], ran[j], simMode[j])
		}
		if len(results[i]) != len(results[j]) {
			h.tb.Fatalf("difftest: %s returned %d results, twin %s %d",
				variantNames[i], len(results[i]), variantNames[j], len(results[j]))
		}
		for k := range results[i] {
			if results[i][k] != results[j][k] {
				h.tb.Fatalf("difftest: %s result %d is %+v, twin %s has %+v",
					variantNames[i], k, results[i][k], variantNames[j], results[j][k])
			}
		}
	}
}
