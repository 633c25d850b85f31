package store

import (
	"context"
	"fmt"
	"hash/fnv"
	"math"
	"sync"
	"sync/atomic"

	"prague/internal/graph"
	"prague/internal/index"
	"prague/internal/intset"
	"prague/internal/prefilter"
)

// Epoch-based copy-on-write state of the store.
//
// A snap is one immutable published state: the graph slot table, the live-id
// universe, one shardSnap per partition, and the global support bookkeeping
// that drives negative-border masking. Mutations run under base.mu, perform
// incremental index surgery on the affected shard only (index.ApplyInsert /
// index.ApplyDelete — copy-on-write at entry granularity), derive the new
// masks, and publish the whole snap with one atomic pointer store. Readers
// either go through the store's delegating methods (each call sees the
// latest epoch) or Pin a snap once per action for a single-epoch view.
//
// Negative-border repair. Entry ids are baked into SPIG fragment lists and
// shared cache keys, so entries never migrate between A²F and A²I when their
// support crosses the frequency threshold. Instead the snap carries masks
// derived purely from the maintained global supports: an A²F entry whose
// support fell below minSup is masked (no longer frequent), an A²I entry
// whose support reached minSup is masked (no longer infrequent), and an A²I
// entry with a masked frequent parent is masked (its negative border is
// invalid). Masked entries classify as KindNone, which routes queries to the
// NIF intersection-and-verify path — always sound because every id list
// stays exact regardless of classification. Because the masks are a pure
// function of the supports, incremental and from-scratch states agree on
// them whenever they agree on the lists (FuzzIncrementalIndex pins both).
//
// Derived per-epoch state follows the same discipline. The verify
// prefilter's table (FilterTable) is built by the first reader of a snap;
// from then on each mutation derives its successor's table from its parent's
// (one row inserted or dropped) before publishing, instead of every epoch's
// first reader rebuilding it over the whole database.
type snap struct {
	epoch  uint64
	kind   string         // layout token: "s<N>"
	fp     string         // content fingerprint, rolled over every mutation (rollFp)
	tag    string         // CacheTag: kind:fp@epoch
	hist   History        // the mutations that led here (Since)
	graphs []*graph.Graph // slot table; nil = tombstone
	live   []int          // ascending non-deleted ids
	shards []*shardSnap
	minSup int   // frozen absolute frequency threshold ⌈α·|D_build|⌉
	supF   []int // global support per a2f entry
	supI   []int // global support per a2i entry
	maskF  []bool
	maskI  []bool
	filter prefilter.Slot
}

type shardSnap struct {
	id  int
	ids []int // live global graph ids, ascending
	set *index.Set
}

func (s *snap) Epoch() uint64             { return s.epoch }
func (s *snap) NumGraphs() int            { return len(s.graphs) }
func (s *snap) Graph(id int) *graph.Graph { return s.graphs[id] }
func (s *snap) LiveIDs() []int            { return s.live }
func (s *snap) NumShards() int            { return len(s.shards) }
func (s *snap) ShardOf(graphID int) int   { return shardOf(graphID, len(s.shards)) }
func (s *snap) CacheTag() string          { return s.tag }

func (s *snap) Since(epoch uint64, tag string) ([]Mutation, bool) {
	if epoch == s.epoch {
		return nil, tag == s.tag
	}
	return s.hist.Since(epoch, tag)
}

func (s *snap) FilterTable() (*prefilter.Table, bool) { return s.filter.Get(s.live, s.Graph) }

// ProbeAll evaluates the required probes over every shard; an in-process
// snapshot sends no request, so it evaluates no rider.
func (s *snap) ProbeAll(ctx context.Context, probes []Probe, riders int, out [][]int) ([][]int, error) {
	return probeShards(ctx, s.shards, probes[:len(probes)-riders], out)
}

// Lookup classifies a canonical code against the vocabulary (every shard
// carries all of it; shard 0 answers), demoting masked entries to KindNone.
func (s *snap) Lookup(code string) (index.Kind, int) {
	kind, id := s.shards[0].set.Lookup(code)
	switch kind {
	case index.KindFrequent:
		if s.maskF[id] {
			return index.KindNone, -1
		}
	case index.KindDIF:
		if s.maskI[id] {
			return index.KindNone, -1
		}
	}
	return kind, id
}

// base is the store chassis: the atomically published current snap plus
// the mutation lock.
type base struct {
	mu  sync.Mutex
	cur atomic.Pointer[snap]
}

// Delegating reads: each sees the latest published epoch. Multi-call
// evaluations needing one consistent view must Pin instead.
func (b *base) Epoch() uint64                        { return b.cur.Load().Epoch() }
func (b *base) NumGraphs() int                       { return b.cur.Load().NumGraphs() }
func (b *base) Graph(id int) *graph.Graph            { return b.cur.Load().Graph(id) }
func (b *base) LiveIDs() []int                       { return b.cur.Load().LiveIDs() }
func (b *base) Lookup(code string) (index.Kind, int) { return b.cur.Load().Lookup(code) }
func (b *base) NumShards() int                       { return b.cur.Load().NumShards() }
func (b *base) ShardOf(graphID int) int              { return b.cur.Load().ShardOf(graphID) }
func (b *base) CacheTag() string                     { return b.cur.Load().CacheTag() }

func (b *base) Since(epoch uint64, tag string) ([]Mutation, bool) {
	return b.cur.Load().Since(epoch, tag)
}

func (b *base) FilterTable() (*prefilter.Table, bool) { return b.cur.Load().FilterTable() }

func (b *base) ProbeAll(ctx context.Context, probes []Probe, riders int, out [][]int) ([][]int, error) {
	return b.cur.Load().ProbeAll(ctx, probes, riders, out)
}

// Pin returns the current snapshot for a single-epoch evaluation.
func (b *base) Pin() Snapshot { return b.cur.Load() }

// newSnap assembles and seals the initial published state of a store. The
// graphs slice is owned by the store; deleted slots must already be nil. A
// non-empty fp restores a persisted lineage fingerprint (so a reloaded store
// keeps sharing cache entries with its pre-save self); "" computes a fresh
// one from content.
func newSnap(kind string, graphs []*graph.Graph, shards []*shardSnap, minSup int, epoch uint64, fp string) *snap {
	s := &snap{
		epoch:  epoch,
		kind:   kind,
		graphs: graphs,
		shards: shards,
		minSup: minSup,
	}
	for id, g := range graphs {
		if g != nil {
			s.live = append(s.live, id)
		}
	}
	// Seal every shard set (load DF clusters, materialize list memos): the
	// incremental surgery and concurrent snapshot sharing both require fully
	// memory-resident lists that are never lazily written again.
	for _, sh := range shards {
		sh.set.Seal()
	}
	vocab := shards[0].set
	s.supF = make([]int, vocab.A2F.NumEntries())
	s.supI = make([]int, vocab.A2I.NumEntries())
	for _, sh := range shards {
		for i := range s.supF {
			s.supF[i] += len(sh.set.A2F.FSGIds(i))
		}
		for i := range s.supI {
			s.supI[i] += len(sh.set.A2I.FSGIds(i))
		}
	}
	s.recomputeMasks()
	if fp == "" {
		fp = fingerprint(kind, graphs, shards)
	}
	s.fp = fp
	s.tag = makeTag(kind, fp, epoch)
	return s
}

// clone prepares the mutable successor that one mutation (op 'i' inserting
// g as id, or 'd' deleting id) publishes: the next epoch, the fingerprint
// rolled over the mutation, the history extended by it, fresh
// support/mask/shard-table slices, and everything else inherited until the
// mutation overwrites it.
func (s *snap) clone(op byte, id int, g *graph.Graph) *snap {
	ns := &snap{
		epoch:  s.epoch + 1,
		kind:   s.kind,
		fp:     rollFp(s.fp, op, id, g),
		hist:   s.hist.Add(Mutation{Epoch: s.epoch, Tag: s.tag, Insert: op == 'i', ID: id}),
		graphs: s.graphs,
		live:   s.live,
		minSup: s.minSup,
		shards: append([]*shardSnap(nil), s.shards...),
		supF:   append([]int(nil), s.supF...),
		supI:   append([]int(nil), s.supI...),
	}
	ns.tag = makeTag(ns.kind, ns.fp, ns.epoch)
	return ns
}

// recomputeMasks rederives the negative-border masks from the supports.
func (s *snap) recomputeMasks() {
	vocab := s.shards[0].set
	s.maskF = make([]bool, len(s.supF))
	for i, sup := range s.supF {
		s.maskF[i] = sup < s.minSup
	}
	s.maskI = make([]bool, len(s.supI))
	for i, sup := range s.supI {
		if sup >= s.minSup {
			s.maskI[i] = true // promoted: no longer infrequent
			continue
		}
		for _, p := range vocab.DIFParents(i) {
			if s.maskF[p] {
				s.maskI[i] = true // border invalid: a frequent parent fell
				break
			}
		}
	}
}

// InsertGraph implements Store: assign the next id, classify the graph
// against the frozen vocabulary, surgically extend the owning shard's index
// lists, and publish the new epoch.
func (b *base) InsertGraph(g *graph.Graph) (int, error) {
	if g == nil || g.NumNodes() == 0 || !g.Connected() {
		return -1, fmt.Errorf("store: insert: %w", ErrBadGraph)
	}
	b.mu.Lock()
	defer b.mu.Unlock()
	cur := b.cur.Load()
	id := len(cur.graphs)
	g.ID = id // the store owns inserted graphs and renumbers them
	si := cur.ShardOf(id)
	set := cur.shards[si].set
	cA2F, cA2I := set.ContainedIn(g)

	ns := cur.clone('i', id, g)
	ns.graphs = append(append(make([]*graph.Graph, 0, len(cur.graphs)+1), cur.graphs...), g)
	ns.live = append(append(make([]int, 0, len(cur.live)+1), cur.live...), id)
	old := cur.shards[si]
	ns.shards[si] = &shardSnap{
		id:  si,
		ids: append(append(make([]int, 0, len(old.ids)+1), old.ids...), id),
		set: set.ApplyInsert(id, cA2F, cA2I),
	}
	for _, i := range cA2F {
		ns.supF[i]++
	}
	for _, i := range cA2I {
		ns.supI[i]++
	}
	ns.recomputeMasks()
	if t := cur.filter.Peek(); t != nil {
		ns.filter.Set(t.Insert(id, g))
	}
	b.cur.Store(ns)
	return id, nil
}

// DeleteGraph implements Store: tombstone the slot, splice the id out of the
// owning shard's index lists, and publish the new epoch. The id is never
// reused.
func (b *base) DeleteGraph(id int) error {
	b.mu.Lock()
	defer b.mu.Unlock()
	cur := b.cur.Load()
	if id < 0 || id >= len(cur.graphs) || cur.graphs[id] == nil {
		return fmt.Errorf("store: delete %d: %w", id, ErrNoSuchGraph)
	}
	if len(cur.live) == 1 {
		return fmt.Errorf("store: delete %d would leave it empty: %w", id, ErrEmptyDatabase)
	}
	si := cur.ShardOf(id)
	set, remF, remI := cur.shards[si].set.ApplyDelete(id)

	ns := cur.clone('d', id, nil)
	ns.graphs = append([]*graph.Graph(nil), cur.graphs...)
	ns.graphs[id] = nil
	ns.live = intset.Diff(cur.live, []int{id})
	old := cur.shards[si]
	ns.shards[si] = &shardSnap{
		id:  si,
		ids: intset.Diff(old.ids, []int{id}),
		set: set,
	}
	for _, i := range remF {
		ns.supF[i]--
	}
	for _, i := range remI {
		ns.supI[i]--
	}
	ns.recomputeMasks()
	if t := cur.filter.Peek(); t != nil {
		ns.filter.Set(t.Delete(id))
	}
	b.cur.Store(ns)
	return nil
}

// minSupportOf freezes the absolute frequency threshold at build time:
// ⌈α·|D|⌉ over the database the indexes were mined from. It deliberately
// does not float with the live graph count — re-deriving the threshold (and
// with it the whole vocabulary) is a rebuild, not a repair.
func minSupportOf(alpha float64, numGraphs int) int {
	return int(math.Ceil(alpha * float64(numGraphs)))
}

// fingerprint hashes the store's content identity — layout, slot table,
// per-graph shapes, and the exact per-shard index lists — so cache keys from
// stores with different contents (e.g. a layout reloaded over a different
// database) can never alias, while a faithful reload of the same content
// reproduces the same fingerprint and keeps sharing cache entries. It is
// computed once at construction; every mutation after that rolls it forward
// (rollFp). Callers must have sealed the shard sets first (DumpLists
// materializes list memos).
func fingerprint(kind string, graphs []*graph.Graph, shards []*shardSnap) string {
	h := fnv.New64a()
	write := func(vs ...int) {
		var buf [8]byte
		for _, v := range vs {
			u := uint64(v)
			for i := 0; i < 8; i++ {
				buf[i] = byte(u >> (8 * i))
			}
			h.Write(buf[:])
		}
	}
	h.Write([]byte(kind))
	write(len(graphs), len(shards))
	for id, g := range graphs {
		if g == nil {
			write(id, -1, -1)
			continue
		}
		write(id, g.NumNodes(), g.Size())
	}
	for _, sh := range shards {
		write(len(sh.ids))
		h.Write([]byte(sh.set.DumpLists()))
	}
	return fmt.Sprintf("%016x", h.Sum64())
}

func makeTag(kind, fp string, epoch uint64) string {
	return fmt.Sprintf("%s:%s@%d", kind, fp, epoch)
}

// rollFp advances the lineage fingerprint over one mutation. The CacheTag
// contract — a tag identifies the computation completely — requires the
// fingerprint to capture the mutation *history*, not just a counter: two
// stores built from identical content that apply different mutation
// sequences reach the same epoch number with different databases, and an
// epoch-only tag would let their cache entries alias (a process-wide cache,
// like the shared candidate cache, would then serve one store's candidates
// for the other's graphs). Chaining the previous
// fingerprint makes the tag a hash of the whole history; hashing the
// inserted graph's labeled structure (not just its shape) separates
// same-slot inserts of different graphs. Replicas applying the same
// sequence in lockstep — the rpcstore broadcast contract — hash identical
// inputs and keep identical tags, which Dial's topology check and the
// differential suites assert.
func rollFp(fp string, op byte, id int, g *graph.Graph) string {
	h := fnv.New64a()
	h.Write([]byte(fp))
	h.Write([]byte{op})
	write := func(vs ...int) {
		var buf [8]byte
		for _, v := range vs {
			u := uint64(v)
			for i := 0; i < 8; i++ {
				buf[i] = byte(u >> (8 * i))
			}
			h.Write(buf[:])
		}
	}
	write(id)
	if g != nil {
		write(g.NumNodes(), g.Size())
		for v := 0; v < g.NumNodes(); v++ {
			h.Write([]byte(g.Label(v)))
			h.Write([]byte{0})
		}
		for _, e := range g.Edges() {
			write(e.U, e.V)
			h.Write([]byte(g.EdgeLabel(e.U, e.V)))
			h.Write([]byte{0})
		}
	}
	return fmt.Sprintf("%016x", h.Sum64())
}

// liveByShard distributes ascending live ids over n shards by the hash
// assignment, for constructors and loaders.
func liveByShard(graphs []*graph.Graph, n int) [][]int {
	parts := make([][]int, n)
	for id, g := range graphs {
		if g == nil {
			continue
		}
		si := shardOf(id, n)
		parts[si] = append(parts[si], id)
	}
	return parts
}
