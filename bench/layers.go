package main

import (
	"bytes"
	"context"
	"fmt"
	"net"
	"runtime"
	"time"

	"prague/internal/candcache"
	"prague/internal/core"
	"prague/internal/graph"
	"prague/internal/index"
	"prague/internal/intset"
	"prague/internal/metrics"
	"prague/internal/query"
	"prague/internal/rpcstore"
	"prague/internal/service"
	"prague/internal/simverify"
	"prague/internal/spig"
	"prague/internal/store"
	"prague/internal/trace"
	"prague/internal/workload"
	"prague/internal/workpool"
)

const (
	tracedRounds = 3  // rounds replayed with tracing on
	probeReps    = 3  // bare-engine passes per variant
	samplePairs  = 32 // data graphs per variant the verifier timings use, matching and not
)

// phaseShares accumulates, from the program's own tracer, where the time of
// traced actions went. The tracer reports each finished span tree as
// (kind, duration) pairs in pre-order, without nesting, so three facts about
// the program's spans keep the buckets disjoint: the index_probe that follows
// a canonical span is the SPIG classifier's and already inside spig_build; a
// cand_fetch that missed contains the probe or the verification it triggered,
// which are taken out of the cache bucket again; verify_batch contains its
// verify_cand children, which are skipped. On a sharded store the per-shard
// verification legs run in parallel and their sum can exceed the action's
// wall time; the shares are then scaled to sum to 1 with no residual.
type phaseShares struct {
	total, spig, probe, cache, verify [2]int64 // µs; [0] edge steps, [1] Run
	cls                               int
	afterCanonical                    bool
	fetchLeft                         int64 // unclaimed µs of the open cand_fetch
}

func (p *phaseShares) observe(kind string, d time.Duration) {
	us := d.Microseconds()
	wasCanonical := p.afterCanonical
	p.afterCanonical = false
	claim := func() {
		part := min(us, p.fetchLeft)
		p.fetchLeft -= part
		p.cache[p.cls] -= part
	}
	switch kind {
	case trace.KindAddEdge.String(), trace.KindDeleteEdge.String(), trace.KindChooseSim.String():
		p.cls, p.fetchLeft = 0, 0
		p.total[0] += us
	case trace.KindRun.String():
		p.cls, p.fetchLeft = 1, 0
		p.total[1] += us
	case trace.KindSpigBuild.String():
		p.spig[p.cls] += us
	case trace.KindCanonical.String():
		p.afterCanonical = true
	case trace.KindIndexProbe.String():
		if !wasCanonical {
			p.probe[p.cls] += us
			claim()
		}
	case trace.KindVerifyBatch.String():
		p.verify[p.cls] += us
		claim()
	case trace.KindCandFetch.String():
		p.cache[p.cls] += us
		p.fetchLeft = us
	}
}

func (p *phaseShares) report(out map[string]metric) {
	for cls, suffix := range []string{".edge", ".run"} {
		type bucket struct {
			name string
			us   int64
		}
		parts := []bucket{{"spig_build", p.spig[cls]}, {"index_probe", p.probe[cls]}, {"candcache", p.cache[cls]}, {"verify", p.verify[cls]}}
		total, residual := p.total[cls], p.total[cls]
		for _, part := range parts {
			residual -= part.us
		}
		if residual < 0 {
			total, residual = total-residual, 0
		}
		for _, part := range append(parts, bucket{"residual", residual}) {
			share := 0.0
			if total > 0 {
				share = float64(part.us) / float64(total)
			}
			out["trace."+part.name+"_share"+suffix] = metric{share, "share"}
		}
	}
}

// probed is what one bare-engine pass over a variant recorded: the inputs of
// the layer timings and the counts the engine exports.
type probed struct {
	build     *workload.Query // the variant's formulation sequence
	weight    int             // sessions of the variant per round
	edgeTimes []time.Duration
	verts     []*spig.Vertex // every SPIG vertex built while formulating
	indexed   [][2]int       // (kind, entry id) of the indexed ones
	lists     [][][]int      // per NIF vertex, the FSG lists its candidates are the intersection of
	deleted   int            // step the modification deleted, 0 for none
	rpcEdges  int64          // shard RPCs of the formulation steps
	rpcRun    int64          // and of the Run
	rfree     int            // |Rfree| and |Rver| the Run evaluated
	rver      int
	decisions []core.FilterDecision
	qg        *graph.Graph   // the final query
	sample    []*graph.Graph // data graphs for the verifier timings
}

// probe formulates and runs the variant on a bare core.Engine over the same
// store and the same candidate cache as the service's sessions.
func probe(top *topology, pool *workpool.Pool, v *variant) (*probed, error) {
	p := &probed{build: v.q}
	e, err := core.NewWithStore(top.st, sigma)
	if err != nil {
		return nil, err
	}
	e.SetPool(pool)
	e.SetCandidateCache(top.svc.CandidateCache())
	e.SetFilterObserver(func(d core.FilterDecision) { p.decisions = append(p.decisions, d) })
	rpcs := top.reg.Counter(metrics.CounterShardRPCCalls)
	nodes := make([]int, len(v.q.NodeLabels))
	for i, l := range v.q.NodeLabels {
		nodes[i] = e.AddNode(l)
	}
	rpc0 := rpcs.Value()
	for _, ed := range v.q.Edges {
		t0 := time.Now()
		out, err := e.AddEdge(nodes[ed[0]], nodes[ed[1]])
		if err != nil {
			return nil, err
		}
		if out.NeedsChoice {
			e.ChooseSimilarity()
		}
		p.edgeTimes = append(p.edgeTimes, time.Since(t0))
		sp := e.Spigs().Spig(out.Step)
		for k := 1; k <= sp.MaxLevel(); k++ {
			p.verts = append(p.verts, sp.Level(k)...)
		}
	}
	for _, vx := range p.verts {
		switch vx.Kind {
		case index.KindFrequent:
			p.indexed = append(p.indexed, [2]int{int(vx.Kind), vx.FreqID})
		case index.KindDIF:
			p.indexed = append(p.indexed, [2]int{int(vx.Kind), vx.DifID})
		default:
			var lists [][]int
			for _, id := range vx.Ups {
				lists = append(lists, top.idx.FSGIds(index.KindDIF, id))
			}
			for _, id := range vx.Phi {
				lists = append(lists, top.idx.FSGIds(index.KindFrequent, id))
			}
			if len(lists) > 0 {
				p.lists = append(p.lists, lists)
			}
		}
	}
	if v.modify {
		sg, err := e.SuggestDeletion()
		if err != nil {
			return nil, err
		}
		out, err := e.DeleteEdge(sg.Step)
		if err != nil {
			return nil, err
		}
		if out.NeedsChoice {
			e.ChooseSimilarity()
		}
		p.deleted = sg.Step
	}
	p.rpcEdges = rpcs.Value() - rpc0
	p.qg, _ = e.Query().Graph()
	rpc0 = rpcs.Value()
	results, err := e.Run()
	if err != nil {
		return nil, err
	}
	p.rpcRun = rpcs.Value() - rpc0
	// After the Run, so that a query whose exact candidates only the Run
	// found empty (the combs) reports the similarity candidates it fell back to.
	p.rfree, p.rver, _ = e.CandidateCounts()

	// The verifier timings run the query against data graphs that match it
	// and data graphs that do not, in equal parts where both exist.
	snap := top.st.Pin()
	matched := map[int]bool{}
	for i, r := range results {
		matched[r.GraphID] = true
		if i < samplePairs {
			p.sample = append(p.sample, snap.Graph(r.GraphID))
		}
	}
	live := snap.LiveIDs()
	for i, n := 0, 0; i < len(live) && n < samplePairs; i++ {
		if id := live[(i*7919)%len(live)]; !matched[id] {
			p.sample = append(p.sample, snap.Graph(id))
			n++
		}
	}
	return p, nil
}

// probeAll makes probeReps passes over every distinct query of the schedule
// and returns the last recording of each, weighted by the query's sessions,
// and the step times of a round on the bare engine (the fastest of the passes,
// each repeated as often as the schedule runs it).
func probeAll(top *topology, pool *workpool.Pool, sched *schedule) ([]*probed, []time.Duration, error) {
	count := make([]int, len(sched.variants))
	for _, o := range sched.ops {
		count[o.variant]++
	}
	var ps []*probed
	var bareEdges []time.Duration
	for i, v := range sched.variants {
		if count[i] == 0 {
			continue
		}
		var p *probed
		best := make([]time.Duration, len(v.q.Edges))
		for rep := 0; rep < probeReps; rep++ {
			var err error
			if p, err = probe(top, pool, v); err != nil {
				return nil, nil, fmt.Errorf("probe of %s: %w", v, err)
			}
			for j, d := range p.edgeTimes {
				if rep == 0 || d < best[j] {
					best[j] = d
				}
			}
		}
		p.weight = count[i]
		ps = append(ps, p)
		for n := 0; n < count[i]; n++ {
			bareEdges = append(bareEdges, best...)
		}
	}
	return ps, bareEdges, nil
}

// layerBatch is how long one batch of a layer timing lasts; the determinism
// test shortens it.
var layerBatch = 2 * time.Millisecond

// timeEach times fn over items [0,n) and returns the median time of one call
// in nanoseconds. A layer call of a few hundred nanoseconds is below the
// clock's resolution one at a time, so a batch is as many passes over all
// items as fill layerBatch.
func timeEach(n int, fn func(i int)) float64 {
	if n == 0 {
		return 0
	}
	pass := func(reps int) time.Duration {
		t0 := time.Now()
		for r := 0; r < reps; r++ {
			for i := 0; i < n; i++ {
				fn(i)
			}
		}
		return time.Since(t0)
	}
	reps := 1 + int(layerBatch/(pass(1)+1))
	const batches = 5
	per := make([]float64, batches)
	for b := range per {
		per[b] = float64(pass(reps)) / float64(reps*n)
	}
	_, med, _ := quartiles(per)
	return med
}

var sink int // keeps timed calls from being optimised away

// weighted is the mean of f over the probed variants, weighted by how often
// the schedule runs each.
func weighted(ps []*probed, f func(*probed) float64) float64 {
	var sum, n float64
	for _, p := range ps {
		sum += float64(p.weight) * f(p)
		n += float64(p.weight)
	}
	return sum / n
}

// perCall is the mean time of one layer call over the schedule: ns(p) is the
// time of one call on variant p's inputs, n(p) how many such calls a session
// of p makes.
func perCall(ps []*probed, n func(*probed) int, ns func(*probed) float64) float64 {
	calls := weighted(ps, func(p *probed) float64 { return float64(n(p)) })
	if calls == 0 {
		return 0
	}
	return weighted(ps, func(p *probed) float64 { return float64(n(p)) * ns(p) }) / calls
}

// layers collects the per-layer metrics of one traced run.
type layers struct {
	top   *topology
	sched *schedule
	out   map[string]metric
}

func (l *layers) put(name string, v float64, unit string) { l.out[name] = metric{v, unit} }

// tracedRun is the -trace 1 run: the same schedule replayed with the
// program's tracer on for tracedRounds rounds and the benchmark's own span
// around every facade call, then the layer timings on inputs recorded from
// the schedule. It fills out with every per-layer metric and, when traceOut
// names a file, writes the benchmark's spans to it.
func tracedRun(top *topology, c *client, fwd *forwarders, times []setupTimes, rounds int, traceOut string, out map[string]metric) error {
	l := &layers{top: top, sched: c.sched, out: out}
	// At most five spans a session beside its steps: session, create, run,
	// delete and a preceding mutation.
	spans := newSpanLog(tracedRounds * (5*len(c.sched.ops) + c.sched.edges + c.sched.modifies + mutationBlock))
	edgeP50 := l.replay(c, fwd, rounds, spans)
	if c.failed > 0 {
		return nil // the run is already incorrect; its layer numbers would mislead
	}
	if traceOut != "" {
		if err := spans.write(traceOut); err != nil {
			return err
		}
	}
	if err := l.setupLayers(times); err != nil {
		return err
	}
	pool := workpool.New(runtime.GOMAXPROCS(0))
	defer pool.Close()
	ps, bareEdges, err := probeAll(top, pool, c.sched)
	if err != nil {
		return err
	}
	l.put("service.overhead_us_per_edge", edgeP50-quantileUS(bareEdges, 50), "us")
	l.counts(ps)
	if err := l.readSide(ps, pool); err != nil {
		return err
	}
	if err := l.wire(ps); err != nil {
		return err
	}
	return l.writeSide()
}

// replay runs the rounds of the end-to-end run and, after each of the first
// tracedRounds, the same round traced, whose throughput is compared with it.
// The untraced rounds feed the runtime readings and spread.<metric>: the
// estimator of the end-to-end run over as many rounds, of which that run
// reports the median and this one the spread. It returns the untraced
// edge_p50_us.
func (l *layers) replay(c *client, fwd *forwarders, rounds int, spans *spanLog) float64 {
	// The tracer was built enabled and switched off before warm-up; nothing
	// is in flight, so the observer can still be installed.
	tracer := l.top.svc.Tracer()
	shares := &phaseShares{}
	tracer.SetSpanObserver(shares.observe)

	var checked, kept, runs [2]int64 // [0] containment Runs, [1] similarity Runs
	report := func(ss *service.Session, _ core.RunOutcome) error {
		rep, err := ss.TraceReport()
		if err != nil {
			return err
		}
		info, err := ss.Describe()
		if err != nil {
			return err
		}
		cls := 0
		if info.SimilarityMode {
			cls = 1
		}
		runs[cls]++
		checked[cls] += rep.CandidatesChecked
		kept[cls] += rep.CandidatesKept
		return nil
	}
	perRound := make([][]float64, numTimings)
	var overhead []float64
	var ms0, ms1 runtime.MemStats
	var alloc, mallocs, pauseNS uint64
	var gcs uint32
	wire0, wireSessions := fwd.count(), 0
	for r := 0; r < rounds; r++ {
		runtime.ReadMemStats(&ms0)
		m := c.round()
		runtime.ReadMemStats(&ms1)
		alloc += ms1.TotalAlloc - ms0.TotalAlloc
		mallocs += ms1.Mallocs - ms0.Mallocs
		pauseNS += ms1.PauseTotalNs - ms0.PauseTotalNs
		gcs += ms1.NumGC - ms0.NumGC
		for i, v := range m {
			perRound[i] = append(perRound[i], v)
		}
		wireSessions += len(l.sched.ops)
		if r < tracedRounds {
			tracer.SetEnabled(true)
			c.inspect, c.spans = report, spans
			t := c.round()
			c.inspect, c.spans = nil, nil
			tracer.SetEnabled(false)
			overhead = append(overhead, 100*(1-t[mSessionsPerS]/m[mSessionsPerS]))
			wireSessions += len(l.sched.ops)
		}
	}
	plainSessions := float64(rounds * len(l.sched.ops))
	l.put("runtime.alloc_kb_per_session", float64(alloc)/1024/plainSessions, "KB")
	l.put("runtime.mallocs_per_session", float64(mallocs)/plainSessions, "count")
	l.put("runtime.gc_cycles", float64(gcs), "count")
	l.put("runtime.gc_pause_ms", float64(pauseNS)/1e6, "ms")
	var edgeP50 float64
	for i, name := range timingNames {
		med, spread := estimate(perRound[i])
		l.put("spread."+name, spread, "share")
		if i == mEdgeP50 {
			edgeP50 = med
		}
	}
	_, med, _ := quartiles(overhead)
	l.put("trace.overhead_pct", med, "%")
	shares.report(l.out)
	l.put("service.create_us", spans.medianUS(spanCreate), "us")
	l.put("service.delete_us", spans.medianUS(spanDelete), "us")
	l.put("rpcstore.wire_bytes_per_session", float64(fwd.count()-wire0)/float64(wireSessions), "B")
	ratio := func(a, b int64) float64 {
		if b == 0 {
			return 0
		}
		return float64(a) / float64(b)
	}
	l.put("graph.vf2_calls_per_run", ratio(checked[0], runs[0]), "count")
	l.put("simverify.calls_per_run", ratio(checked[1], runs[1]), "count")
	l.put("graph.vf2_match_share", ratio(kept[0]+kept[1], checked[0]+checked[1]), "share")
	return edgeP50
}

// setupLayers reports set-up layer by layer: the medians of the run's set-ups, the
// partition split on its own, and the index size.
func (l *layers) setupLayers(times []setupTimes) error {
	median := func(f func(setupTimes) time.Duration) float64 {
		d := make([]float64, len(times))
		for i, t := range times {
			d[i] = f(t).Seconds()
		}
		_, med, _ := quartiles(d)
		return med
	}
	l.put("mining.mine_s", median(func(t setupTimes) time.Duration { return t.mine }), "s")
	l.put("index.build_s", median(func(t setupTimes) time.Duration { return t.build }), "s")
	l.put("store.build_ms", 1e3*median(func(t setupTimes) time.Duration { return t.store }), "ms")
	l.put("rpcstore.dial_prefetch_ms", 1e3*median(func(t setupTimes) time.Duration { return t.dial }), "ms")
	partition := make([]float64, setups)
	for i := range partition {
		t0 := time.Now()
		if _, _, err := index.PartitionSets(l.top.idx, shards, func(id int) int { return store.AssignShard(id, shards) }); err != nil {
			return err
		}
		partition[i] = time.Since(t0).Seconds() * 1e3
	}
	_, med, _ := quartiles(partition)
	l.put("index.partition_ms", med, "ms")
	sizeBytes, _, _ := l.top.idx.SizeBytes()
	l.put("index.size_mb", float64(sizeBytes)/(1<<20), "MB")
	return nil
}

// counts reports what the layers export as counts, per step and per Run.
func (l *layers) counts(ps []*probed) {
	top := l.top
	edges := weighted(ps, func(p *probed) float64 { return float64(len(p.edgeTimes)) })
	verts := weighted(ps, func(p *probed) float64 { return float64(len(p.verts)) }) / edges
	l.put("spig.vertices_per_edge", verts, "count")
	l.put("graph.canonical_calls_per_edge", verts, "count") // one canonical code per SPIG vertex
	l.put("core.rfree_per_run", weighted(ps, func(p *probed) float64 { return float64(p.rfree) }), "count")
	l.put("core.rver_per_run", weighted(ps, func(p *probed) float64 { return float64(p.rver) }), "count")
	l.put("rpcstore.rpcs_per_edge", weighted(ps, func(p *probed) float64 { return float64(p.rpcEdges) })/edges, "count")
	l.put("rpcstore.rpcs_per_run", weighted(ps, func(p *probed) float64 { return float64(p.rpcRun) }), "count")
	var candidates, kept float64
	for _, p := range ps {
		for _, d := range p.decisions {
			candidates += float64(p.weight * d.Candidates)
			kept += float64(p.weight * d.Kept)
		}
	}
	if candidates > 0 {
		kept /= candidates
	}
	l.put("core.filter_kept_share", kept, "share")
	l.put("rpcstore.retries", float64(top.reg.Counter(metrics.CounterShardRPCRetries).Value()), "count")
	l.put("rpcstore.hedged", float64(top.reg.Counter(metrics.CounterShardRPCHedged).Value()), "count")
	l.put("service.shed", float64(top.reg.Counter(metrics.CounterOverloadShed).Value()), "count")
	var cache candcache.Stats
	if cc := top.svc.CandidateCache(); cc != nil {
		cache = cc.Stats()
	}
	l.put("candcache.hit_ratio", cache.HitRatio(), "share")
	l.put("candcache.evictions", float64(cache.Evictions), "count")
	l.put("candcache.bytes", float64(cache.Bytes), "B")
}

// readSide times the layers a formulation step and a Run go through, each on
// the inputs the probes recorded: the weighted mean over the variants of the
// median time of one call.
func (l *layers) readSide(ps []*probed, pool *workpool.Pool) error {
	top := l.top
	snap := top.st.Pin()
	l.put("graph.canonical_us_per_call", perCall(ps, func(p *probed) int { return len(p.verts) }, func(p *probed) float64 {
		return timeEach(len(p.verts), func(i int) { sink += len(graph.CanonicalCode(p.verts[i].Frag)) })
	})/1e3, "us")
	l.put("index.lookup_ns_per_call", perCall(ps, func(p *probed) int { return len(p.verts) }, func(p *probed) float64 {
		return timeEach(len(p.verts), func(i int) { _, id := snap.Lookup(p.verts[i].Code); sink += id })
	}), "ns")
	l.put("index.fsgids_ns_per_call", perCall(ps, func(p *probed) int { return len(p.indexed) }, func(p *probed) float64 {
		return timeEach(len(p.indexed), func(i int) { sink += len(top.idx.FSGIds(index.Kind(p.indexed[i][0]), p.indexed[i][1])) })
	}), "ns")
	var a, scratch intset.Bits
	var dst []int
	l.put("intset.intersect_us_per_call", perCall(ps, func(p *probed) int { return len(p.lists) }, func(p *probed) float64 {
		return timeEach(len(p.lists), func(i int) { dst = intset.IntersectInto(dst[:0], p.lists[i], &a, &scratch) })
	})/1e3, "us")

	// SPIG construction and deletion, replayed on a private SPIG set with the
	// store as classifier, as the engine holds them.
	spigNS := map[*probed][2]float64{}
	for _, p := range ps {
		var construct, del [5]float64
		for i := range construct {
			c, d, err := replaySpig(snap, p)
			if err != nil {
				return err
			}
			construct[i], del[i] = float64(c), float64(d)
		}
		_, c, _ := quartiles(construct[:])
		_, d, _ := quartiles(del[:])
		spigNS[p] = [2]float64{c, d}
	}
	edges := weighted(ps, func(p *probed) float64 { return float64(len(p.edgeTimes)) })
	l.put("spig.construct_us_per_edge", weighted(ps, func(p *probed) float64 { return spigNS[p][0] })/edges/1e3, "us")
	l.put("spig.delete_us", perCall(ps, func(p *probed) int { return min(p.deleted, 1) }, func(p *probed) float64 { return spigNS[p][1] })/1e3, "us")

	// The verifiers: the final query against data graphs that match it and
	// data graphs that do not. The pool: a constant predicate, so what is
	// left is the hand-off.
	l.put("graph.vf2_us_per_call", perCall(ps, func(p *probed) int { return len(p.sample) }, func(p *probed) float64 {
		return timeEach(len(p.sample), func(i int) {
			if graph.SubgraphIsomorphic(p.qg, p.sample[i]) {
				sink++
			}
		})
	})/1e3, "us")
	l.put("simverify.within_us_per_call", perCall(ps, func(p *probed) int { return len(p.sample) }, func(p *probed) float64 {
		vf := simverify.NewVerifier(p.qg)
		return timeEach(len(p.sample), func(i int) {
			if vf.WithinDistance(p.sample[i], sigma) {
				sink++
			}
		})
	})/1e3, "us")
	live := snap.LiveIDs()
	thousand := live[:min(1000, len(live))]
	l.put("workpool.filter_us_per_1k_ids", timeEach(1, func(int) {
		ids, _ := pool.Filter(context.Background(), thousand, func(int) bool { return true })
		sink += len(ids)
	})/1e3*1000/float64(len(thousand)), "us")

	// The store's read side: a 4-part merge of the live ids, and a pin.
	parts := store.SplitBy(shardView{snap}, live)
	l.put("store.merge_sorted_us_per_call", timeEach(1, func(int) { sink += len(store.MergeSorted(parts)) })/1e3, "us")
	l.put("store.pin_ns", timeEach(1, func(int) { sink += top.st.Pin().NumShards() }), "ns")
	return nil
}

// wire times the rpcstore codec on candidate replies (shard 0's part of the
// FSG lists the schedule intersects) and, where there is a server, the round
// trip under every remote call: the smallest op, a fragment lookup, over one
// loopback connection.
func (l *layers) wire(ps []*probed) error {
	snap := l.top.st.Pin()
	var replies []*rpcstore.Msg
	var replyIDs [][]int
	for _, p := range ps {
		for _, lists := range p.lists {
			for _, ids := range lists {
				if part := store.SplitBy(shardView{snap}, ids)[0]; len(part) > 0 && len(replies) < 256 {
					replies = append(replies, &rpcstore.Msg{Op: rpcstore.OpCandidates, IDs: rpcstore.PackIDs(part)})
					replyIDs = append(replyIDs, part)
				}
			}
		}
	}
	var buf bytes.Buffer
	frames := make([][]byte, len(replies))
	var frameBytes float64
	for i, m := range replies {
		buf.Reset()
		if err := rpcstore.WriteFrame(&buf, rpcstore.CodecGob, m); err != nil {
			return err
		}
		frames[i] = bytes.Clone(buf.Bytes())
		frameBytes += float64(buf.Len()) / float64(len(replies))
	}
	l.put("rpcstore.frame_bytes_candidates", frameBytes, "B")
	l.put("rpcstore.write_frame_us", timeEach(len(replies), func(i int) {
		buf.Reset()
		rpcstore.WriteFrame(&buf, rpcstore.CodecGob, replies[i]) // cannot fail: it did not above
	})/1e3, "us")
	l.put("rpcstore.read_frame_us", timeEach(len(frames), func(i int) {
		m, _, _ := rpcstore.ReadFrame(bytes.NewReader(frames[i])) // decodes what WriteFrame wrote
		sink += len(m.IDs)
	})/1e3, "us")
	l.put("rpcstore.pack_ids_us", timeEach(len(replyIDs), func(i int) { sink += len(rpcstore.PackIDs(replyIDs[i])) })/1e3, "us")
	l.put("rpcstore.unpack_ids_us", timeEach(len(replies), func(i int) { sink += len(rpcstore.UnpackIDs(replies[i].IDs)) })/1e3, "us")

	roundtrip := 0.0
	if len(l.top.servers) > 0 {
		conn, err := net.Dial("tcp", l.top.servers[0].Addr().String())
		if err != nil {
			return err
		}
		defer conn.Close()
		const calls = 500
		d := make([]time.Duration, 0, calls)
		for i := 0; i < calls; i++ {
			t0 := time.Now()
			err := rpcstore.WriteFrame(conn, rpcstore.CodecGob, &rpcstore.Msg{Seq: uint64(i), Op: rpcstore.OpLookup, Frag: ps[0].verts[0].Code})
			if err == nil {
				_, _, err = rpcstore.ReadFrame(conn)
			}
			if err != nil {
				return err
			}
			d = append(d, time.Since(t0))
		}
		roundtrip = quantileUS(d, 50)
	}
	l.put("rpcstore.roundtrip_us", roundtrip, "us")
	return nil
}

// writeSide comes last because it moves the epoch: the index surgery on the
// built index set with the schedule's mutation graphs, then insert and delete
// directly on the store.
func (l *layers) writeSide() error {
	top, graphs := l.top, l.sched.graphs
	contained := make([][2][]int, len(graphs))
	l.put("index.contained_in_us", timeEach(len(graphs), func(i int) {
		contained[i][0], contained[i][1] = top.idx.ContainedIn(graphs[i])
	})/1e3, "us")
	gid := top.idx.NumGraphs // the next free id: lists stay sorted
	grown := make([]*index.Set, len(graphs))
	l.put("index.apply_insert_us", timeEach(len(graphs), func(i int) {
		grown[i] = top.idx.ApplyInsert(gid, contained[i][0], contained[i][1])
	})/1e3, "us")
	l.put("index.apply_delete_us", timeEach(len(graphs), func(i int) {
		s, _, _ := grown[i].ApplyDelete(gid)
		sink += s.NumGraphs
	})/1e3, "us")
	l.put("store.epoch_final", float64(top.svc.Epoch()), "count")
	var inserts, deletes []time.Duration
	for _, g := range graphs {
		fresh := g.Clone()
		t0 := time.Now()
		id, err := top.st.InsertGraph(fresh)
		t1 := time.Now()
		if err == nil {
			err = top.st.DeleteGraph(id)
		}
		if err != nil {
			return fmt.Errorf("store mutation: %w", err)
		}
		inserts, deletes = append(inserts, t1.Sub(t0)), append(deletes, time.Since(t1))
	}
	l.put("store.insert_us", quantileUS(inserts, 50), "us")
	l.put("store.delete_us", quantileUS(deletes, 50), "us")
	return nil
}

// shardView makes any snapshot look like the benchmark's 4-shard layout to
// store.SplitBy, so that id lists are cut the same way on every topology.
type shardView struct{ store.Snapshot }

func (shardView) NumShards() int     { return shards }
func (shardView) ShardOf(id int) int { return store.AssignShard(id, shards) }

// replaySpig rebuilds the variant's SPIG set edge by edge on a private set,
// then deletes the edge its modification deletes, and returns how long each
// took.
func replaySpig(cls spig.Classifier, p *probed) (construct, del time.Duration, err error) {
	set := spig.NewSet(cls)
	q := query.New()
	nodes := make([]int, len(p.build.NodeLabels))
	for i, l := range p.build.NodeLabels {
		nodes[i] = q.AddNode(l)
	}
	for _, e := range p.build.Edges {
		step, err := q.AddEdge(nodes[e[0]], nodes[e[1]])
		if err != nil {
			return 0, 0, err
		}
		t0 := time.Now()
		_, err = set.Construct(q, step)
		construct += time.Since(t0)
		if err != nil {
			return 0, 0, err
		}
	}
	if p.deleted > 0 {
		if err := q.DeleteEdge(p.deleted); err != nil {
			return 0, 0, err
		}
		t0 := time.Now()
		set.DeleteEdge(p.deleted)
		del = time.Since(t0)
	}
	return construct, del, nil
}
