// Package prague is a from-scratch Go implementation of PRAGUE (PRactical
// visuAl Graph QUery blEnder), the blended visual subgraph query system of
// Jin, Bhowmick, Choi and Zhou (ICDE 2012).
//
// PRAGUE interleaves visual query formulation with query processing: after
// every edge a user draws, the engine evaluates the partial query fragment
// against action-aware indexes using spindle-shaped graphs (SPIGs), so that
// when the user finally presses Run, most of the work has already happened
// during GUI latency. The engine transparently degrades from subgraph
// containment search to MCCS-based subgraph similarity search when the
// exact candidate set empties, suggests query modifications, and supports
// cheap edge deletion at any time.
//
// Typical single-user use:
//
//	db, _ := prague.GenerateMolecules(2000, 42)          // or LoadDatabase
//	ix, _ := prague.BuildIndexes(db, prague.IndexOptions{Alpha: 0.1, Beta: 6})
//	s, _ := prague.NewSession(db, ix, 3)                 // σ = 3
//	c1 := s.AddNode("C")
//	c2 := s.AddNode("C")
//	out, _ := s.AddEdge(c1, c2)                          // evaluated immediately
//	if out.NeedsChoice {                                 // no exact match left
//		s.ChooseSimilarity()                         // ... or s.DeleteEdge
//	}
//	results, _ := s.Run()                                // SRT-cheap finish
//
// To serve many concurrent users over one database, create a Service instead
// of bare sessions: it multiplexes id-addressed sessions over a shared
// bounded verification pool, evicts idle sessions, and records metrics. A
// service is built over a GraphStore, and the store constructor alone
// chooses the layout — NewStore (n hash partitions; n = 1 is the monolithic
// layout), LoadStore (persisted), or DialStore (remote shard servers):
//
//	st, _ := prague.NewStore(db, ix, 1)          // or NewStore(db, ix, 8)
//	svc, _ := prague.NewService(st,
//		prague.WithSigma(3),
//		prague.WithVerifyWorkers(8),
//		prague.WithSessionTTL(15*time.Minute))
//	defer svc.Close()
//	ss, _ := svc.Create(ctx)
//	a, _ := ss.AddNode("C")
//	b, _ := ss.AddNode("N")
//	out, _ := ss.AddEdge(ctx, a, b)
//	results, err := ss.Run(ctx)   // ErrAwaitingChoice until resolved
//
// The service never closes its store: a caller that dialed one closes it
// after Service.Close.
//
// Stores are mutable: Service.InsertGraph and Service.DeleteGraph grow and
// shrink the database online, maintaining the per-shard index id lists
// incrementally (no rebuild) and publishing epoch-numbered copy-on-write
// snapshots. Every formulation action and Run pins the epoch it starts in,
// so concurrent mutation never mixes two database states into one answer;
// RunOutcome.Epoch reports the pinned epoch. See ExampleNewService_mutable.
package prague

import (
	"context"
	"fmt"
	"io"
	"time"

	"prague/internal/core"
	"prague/internal/dataset"
	"prague/internal/faultinject"
	"prague/internal/graph"
	"prague/internal/index"
	"prague/internal/metrics"
	"prague/internal/mining"
	"prague/internal/patterns"
	"prague/internal/rpcstore"
	"prague/internal/service"
	"prague/internal/slo"
	"prague/internal/spig"
	"prague/internal/store"
	"prague/internal/trace"
)

// Sentinel errors. Test with errors.Is; every returned error that matches
// one of these wraps it with context.
var (
	// ErrEmptyQuery: Run or Explain on a query with no edges.
	ErrEmptyQuery = core.ErrEmptyQuery
	// ErrAwaitingChoice: the exact candidate set emptied and the session is
	// waiting for the Modify-or-SimQuery decision.
	ErrAwaitingChoice = core.ErrAwaitingChoice
	// ErrGraphNotFound: a graph id outside the database.
	ErrGraphNotFound = core.ErrGraphNotFound
	// ErrNegativeSigma: a negative subgraph distance threshold.
	ErrNegativeSigma = core.ErrNegativeSigma
	// ErrEmptyDatabase: a database with no graphs.
	ErrEmptyDatabase = store.ErrEmptyDatabase
	// ErrSessionNotFound: unknown, deleted, or evicted session id.
	ErrSessionNotFound = service.ErrSessionNotFound
	// ErrServiceClosed: the service has been shut down.
	ErrServiceClosed = service.ErrServiceClosed
	// ErrTooManySessions: the WithMaxSessions limit is reached.
	ErrTooManySessions = service.ErrTooManySessions
	// ErrNoTrace: a trace report was requested but tracing is disabled or no
	// Run has been traced yet.
	ErrNoTrace = service.ErrNoTrace
	// ErrOverloaded: the action was shed by admission control (the concrete
	// error is an *OverloadError carrying a retry-after hint).
	ErrOverloaded = service.ErrOverloaded
	// ErrBudgetExhausted: an action deadline expired with nothing sound to
	// serve — not even a flagged, degraded answer.
	ErrBudgetExhausted = core.ErrBudgetExhausted
	// ErrVerifyFaults: verification faults (worker panics, injected errors)
	// truncated the answer and the caller asked for strictness.
	ErrVerifyFaults = core.ErrVerifyFaults
	// ErrTooManyEdges: the edge would be the query's 65th live edge. It is
	// not drawn, and the session continues as it was.
	ErrTooManyEdges = spig.ErrTooManyEdges
)

// Graph is a connected, undirected, node-labeled graph — the data model for
// both data graphs and queries.
type Graph = graph.Graph

// Edge is an undirected edge between node indices.
type Edge = graph.Edge

// NewGraph returns an empty graph with the given identifier.
func NewGraph(id int) *Graph { return graph.New(id) }

// Session is a PRAGUE formulation session: one evolving visual query over a
// database, evaluated after every action. See the package example for the
// action flow (AddNode / AddEdge / ChooseSimilarity / DeleteEdge /
// SuggestDeletion / Run).
type Session = core.Engine

// Result is one query answer: a graph identifier and its subgraph distance
// to the final query (0 = exact containment match).
type Result = core.Result

// StepOutcome reports what a session precomputed after one action.
type StepOutcome = core.StepOutcome

// Status classifies the query fragment (frequent / infrequent / similar).
type Status = core.Status

// Suggestion is the engine's modification recommendation when no exact
// match remains.
type Suggestion = core.Suggestion

// Indexes bundles the action-aware frequent (A²F) and infrequent (A²I)
// indexes PRAGUE evaluates against.
type Indexes = index.Set

// DatasetStats summarizes a database (sizes, density, label vocabulary).
type DatasetStats = dataset.DatasetStats

// Database is an immutable collection of data graphs with dense identifiers.
type Database struct {
	graphs []*Graph
}

// NewDatabase wraps a set of graphs as a database, renumbering identifiers
// densely in slice order. An empty slice returns ErrEmptyDatabase.
func NewDatabase(graphs []*Graph) (*Database, error) {
	if len(graphs) == 0 {
		return nil, fmt.Errorf("prague: %w", ErrEmptyDatabase)
	}
	for i, g := range graphs {
		if g == nil {
			return nil, fmt.Errorf("prague: nil graph at position %d", i)
		}
		if !g.Connected() {
			return nil, fmt.Errorf("prague: graph at position %d is disconnected", i)
		}
		g.ID = i
	}
	return &Database{graphs: graphs}, nil
}

// LoadDatabase reads a database in the conventional gSpan text format
// ("t # id" / "v idx label" / "e u v" records).
func LoadDatabase(r io.Reader) (*Database, error) {
	graphs, err := graph.ReadAll(r)
	if err != nil {
		return nil, err
	}
	return NewDatabase(graphs)
}

// Save writes the database in gSpan text format.
func (db *Database) Save(w io.Writer) error { return graph.WriteAll(w, db.graphs) }

// GenerateMolecules creates an AIDS-Antiviral-like database of n seeded
// synthetic molecule graphs (avg ≈ 25 nodes / 27 edges, carbon-dominated).
func GenerateMolecules(n int, seed int64) (*Database, error) {
	graphs, err := dataset.Molecules(dataset.MoleculeOptions{NumGraphs: n, Seed: seed})
	if err != nil {
		return nil, err
	}
	return &Database{graphs: graphs}, nil
}

// GenerateBondedMolecules is GenerateMolecules with bond-order edge labels
// ("1"/"2"/"3"); queries over such databases can constrain bond types via
// Session.AddLabeledEdge.
func GenerateBondedMolecules(n int, seed int64) (*Database, error) {
	graphs, err := dataset.Molecules(dataset.MoleculeOptions{NumGraphs: n, Seed: seed, BondLabels: true})
	if err != nil {
		return nil, err
	}
	return &Database{graphs: graphs}, nil
}

// GenerateSynthetic creates a GraphGen-like database of n seeded synthetic
// graphs (avg 30 edges, density 0.1, 20 labels).
func GenerateSynthetic(n int, seed int64) (*Database, error) {
	graphs, err := dataset.Synthetic(dataset.SyntheticOptions{NumGraphs: n, Seed: seed})
	if err != nil {
		return nil, err
	}
	return &Database{graphs: graphs}, nil
}

// Len returns the number of data graphs.
func (db *Database) Len() int { return len(db.graphs) }

// Graphs returns the data graphs. The slice and graphs are owned by the
// database and must not be mutated.
func (db *Database) Graphs() []*Graph { return db.graphs }

// Graph returns the data graph with the given identifier, or an error
// wrapping ErrGraphNotFound.
func (db *Database) Graph(id int) (*Graph, error) {
	if id < 0 || id >= len(db.graphs) {
		return nil, fmt.Errorf("prague: id %d: %w", id, ErrGraphNotFound)
	}
	return db.graphs[id], nil
}

// Stats computes summary statistics.
func (db *Database) Stats() DatasetStats { return dataset.Stats(db.graphs) }

// IndexOptions configures offline index construction.
type IndexOptions struct {
	// Alpha is the minimum support threshold α ∈ (0,1): fragments with
	// support ≥ α·|D| are frequent (default 0.1, the paper's AIDS setting).
	Alpha float64
	// Beta is the fragment size threshold β splitting the memory-resident
	// MF-index from the disk-resident DF-index (default 4).
	Beta int
	// MaxFragmentSize caps mined fragment sizes (default 8; visual queries
	// are small, and mining cost grows steeply with this).
	MaxFragmentSize int
}

// BuildIndexes mines the database (gSpan + DIF extraction) and constructs
// the action-aware indexes. This is the offline preprocessing step; sessions
// share the resulting Indexes.
func BuildIndexes(db *Database, opt IndexOptions) (*Indexes, error) {
	if opt.Alpha == 0 {
		opt.Alpha = 0.1
	}
	if opt.Beta == 0 {
		opt.Beta = 4
	}
	if opt.MaxFragmentSize == 0 {
		opt.MaxFragmentSize = 8
	}
	res, err := mining.Mine(db.graphs, mining.Options{
		MinSupportRatio:         opt.Alpha,
		MaxSize:                 opt.MaxFragmentSize,
		IncludeZeroSupportPairs: true,
	})
	if err != nil {
		return nil, err
	}
	return index.Build(res, opt.Alpha, opt.Beta)
}

// SaveIndexes persists the indexes into dir. The DF-index component is
// written cluster by cluster; LoadIndexes reads every cluster back at load.
func SaveIndexes(ix *Indexes, dir string) error { return ix.Save(dir) }

// LoadIndexes loads persisted indexes from dir.
func LoadIndexes(dir string) (*Indexes, error) { return index.Load(dir) }

// GraphStore is the handle a Service is built over: graph access,
// action-aware index probes, candidate enumeration, online mutation
// (InsertGraph/DeleteGraph with incremental index maintenance and epoch
// snapshots), and persistence. Its constructor chooses the layout: an
// in-process store of n hash partitions whose shards own their own A²F/A²I
// slices (NewStore; n = 1 is the monolithic layout), or a remote
// shard-server topology (DialStore). Results are byte-identical across
// layouts.
type GraphStore = store.Store

// StoreSnapshot is one pinned epoch of a GraphStore: an immutable view of
// the slot table, live-id universe, and per-shard index lists. Sessions pin
// one snapshot per action; GraphStore.Pin exposes the same mechanism.
type StoreSnapshot = store.Snapshot

// NewStore hash-partitions the database and its indexes into n shards,
// each owning the FSG id lists of its own graphs, as a mutable GraphStore —
// the handle to build a service on (NewService), to mutate online, or to
// persist (SaveStore). n = 1 is the monolithic layout: its one shard holds
// ix itself, with no partition copy. The full fragment vocabulary
// (classification, DAG structure) is replicated in every shard, so SPIG
// construction is layout-independent; candidate enumeration evaluates the
// shards in the caller's loop and merges their lists. The store takes
// ownership; do not mutate db or ix directly afterwards.
func NewStore(db *Database, ix *Indexes, n int) (GraphStore, error) {
	if db == nil || db.Len() == 0 {
		return nil, fmt.Errorf("prague: store: %w", ErrEmptyDatabase)
	}
	return store.NewSharded(db.graphs, ix, n)
}

// SaveStore persists a store's layout into dir: a manifest plus one index
// directory per shard.
func SaveStore(st GraphStore, dir string) error { return st.Save(dir) }

// LoadStore loads a persisted layout (SaveStore of a NewStore) over the
// database. The manifest pins the partition scheme and graph count, so
// loading against a different database fails rather than silently
// mis-assigning graphs. Mutated stores round-trip: the epoch, the frozen
// support threshold, and the tombstoned ids are restored from the manifest,
// and db must supply every slot ever allocated (deleted slots may be nil).
func LoadStore(db *Database, dir string) (GraphStore, error) {
	if db == nil || db.Len() == 0 {
		return nil, fmt.Errorf("prague: store: %w", ErrEmptyDatabase)
	}
	return store.LoadSharded(db.graphs, dir)
}

// DialStore connects to a remote shard-server topology (cmd/shardserver
// processes) and returns a coordinator-side GraphStore: an action's
// candidate probes travel as one request per replica group over TCP, with
// retry, replica failover, and hedged requests; graphs are prefetched and
// cached client-side; mutations broadcast to every replica in lockstep.
// Replicas claiming the same shard serve as failover/hedging targets. A
// service built over the store reports its shard_rpc_* metrics and
// endpoint-health gauges. The returned store implements io.Closer: the
// caller that dialed it closes it, after the service over it.
func DialStore(ctx context.Context, endpoints []string) (GraphStore, error) {
	return rpcstore.Dial(ctx, endpoints)
}

// NewSession starts a single-user PRAGUE session over the database with
// subgraph distance threshold sigma (how many query edges an approximate
// match may miss). For serving many users, prefer NewService.
func NewSession(db *Database, ix *Indexes, sigma int) (*Session, error) {
	return core.New(db.graphs, ix, sigma)
}

// Service multiplexes many concurrent, id-addressed formulation sessions
// over one GraphStore: a shared bounded verification worker pool,
// per-session serialization, idle-session eviction, and a metrics registry.
// See NewService.
type Service = service.Service

// ManagedSession is one user's session inside a Service. Unlike the bare
// Session it is context-first and safe for concurrent use, and its Run
// refuses with ErrAwaitingChoice until a pending Modify-or-SimQuery choice
// is resolved.
type ManagedSession = service.Session

// SessionInfo is a point-in-time description of a managed session's state.
type SessionInfo = service.Info

// Option configures a Service at construction. Options fall into four
// groups, each documented under its banner below: serving (WithSigma,
// WithVerifyWorkers, WithSessionTTL, WithMaxSessions), caching
// (WithCandidateCache), robustness (WithMaxInFlight, WithSessionQueue,
// WithActionDeadline, WithFaultInjection), and observability (WithMetrics,
// WithTracing, WithSlowThreshold, WithOpsServer, WithSLO, WithSLOWindow).
// The store's layout is not an option: it is chosen where the store is
// built.
type Option = service.Option

// Metrics is a registry of counters and latency histograms; its Snapshot
// serializes to JSON. The zero value is ready to use (see also NewMetrics);
// the package-level default registry is DefaultMetrics.
type Metrics = metrics.Registry

// NewMetrics returns an empty metrics registry for WithMetrics.
func NewMetrics() *Metrics { return metrics.NewRegistry() }

// MetricsSnapshot is a point-in-time JSON-serializable metrics capture.
type MetricsSnapshot = metrics.Snapshot

// DefaultMetrics is the registry services record into unless WithMetrics
// overrides it.
var DefaultMetrics = metrics.Default

// ---- Serving options ------------------------------------------------------
//
// How sessions are matched and scaled over the store.

// WithSigma sets the subgraph distance threshold σ for the service's
// sessions (default 3, the paper's setting).
func WithSigma(sigma int) Option { return service.WithSigma(sigma) }

// WithVerifyWorkers bounds the service's shared verification pool (default
// GOMAXPROCS).
func WithVerifyWorkers(n int) Option { return service.WithVerifyWorkers(n) }

// WithSessionTTL sets how long an idle session survives before eviction
// (default 30m; ≤ 0 disables eviction).
func WithSessionTTL(d time.Duration) Option { return service.WithSessionTTL(d) }

// WithMaxSessions caps concurrently live sessions (default 0: unlimited).
func WithMaxSessions(n int) Option { return service.WithMaxSessions(n) }

// FilterDecision is one verify-prefilter outcome: whether the candidate
// list was count-filtered or went to VF2 as probed, the candidate counts
// before and after, and the reason.
type FilterDecision = core.FilterDecision

// ---- Caching options ------------------------------------------------------
//
// What evaluation work is shared across sessions.

// WithCandidateCache sets the byte budget of the service's shared
// cross-session candidate/result cache: candidate sets and verified
// containment sets are stored under the fragment's canonical code — tagged
// with the store's identity and epoch, so online mutation invalidates by
// construction — and reused by every session, with singleflight deduplication
// of concurrent misses. The default is 32 MiB; ≤ 0 disables caching.
// Hit/miss/coalesced/eviction counters appear in the service's metrics
// snapshot as candcache_*.
func WithCandidateCache(bytes int64) Option { return service.WithCandidateCache(bytes) }

// ---- Robustness options ---------------------------------------------------
//
// How the service behaves at and past its capacity: admission bounds, action
// budgets, and chaos testing. Mutations (Service.InsertGraph /
// Service.DeleteGraph) share the WithMaxInFlight bound with evaluating
// actions, so an ingest storm cannot starve queries.

// WithMaxInFlight bounds the service-wide number of concurrently evaluating
// actions. Excess actions are shed immediately (non-blocking) with an
// *OverloadError wrapping ErrOverloaded; reads bypass admission. n ≤ 0
// means unlimited (the default).
func WithMaxInFlight(n int) Option { return service.WithMaxInFlight(n) }

// WithSessionQueue bounds, per session, the number of evaluating actions
// admitted at once; the excess is shed like WithMaxInFlight. n ≤ 0 means
// unlimited (the default).
func WithSessionQueue(n int) Option { return service.WithSessionQueue(n) }

// WithActionDeadline budgets each evaluating action. An admitted Run
// answers within roughly the budget by degrading down the ladder (exact →
// flagged partial → flagged similarity bounds → flagged last-known-good)
// instead of blocking or failing; formulation actions that overrun are
// rolled back with a typed error.
func WithActionDeadline(d time.Duration) Option { return service.WithActionDeadline(d) }

// WithFaultInjection arms deterministic fault injection (latency, typed
// errors, panics at the verification/cache/index sites) on every action the
// service evaluates. Chaos testing only; a nil injector is a no-op.
func WithFaultInjection(in *faultinject.Injector) Option { return service.WithFaultInjection(in) }

// ---- Observability options ------------------------------------------------
//
// What the service records about itself and where it exposes it.

// WithMetrics records the service's metrics into reg instead of
// DefaultMetrics.
func WithMetrics(reg *Metrics) Option { return service.WithMetrics(reg) }

// WithTracing enables per-action structured tracing: every AddEdge,
// DeleteEdge, and Run records a span tree of its evaluation phases (SPIG
// construction, canonical codes, index probes, cache fetches, workpool
// verification, similarity degradation). Each ManagedSession then serves an
// SRT breakdown via TraceReport, the service keeps a bounded journal of the
// slowest actions (SlowSpans), and phase_* histograms feed the metrics
// registry. Disabled tracing (the default) costs one atomic nil-check per
// action.
func WithTracing(on bool) Option { return service.WithTracing(on) }

// WithSlowThreshold admits only traced actions at least this slow into the
// slow-action journal (0 journals every traced action). Implies
// WithTracing(true).
func WithSlowThreshold(d time.Duration) Option { return service.WithSlowThreshold(d) }

// WithOpsServer serves the live ops/debug surface on addr (host:port; ":0"
// picks a free port, readable via Service.OpsAddr): GET /healthz, /metrics
// (JSON snapshot of the registry), /trace/slow (slow-action span trees),
// and /debug/pprof. The server stops with Service.Close.
func WithOpsServer(addr string) Option { return service.WithOpsServer(addr) }

// SLOTargets declares the service-level objectives the SLO tracker enforces
// (p99 SRT, max shed rate). The zero value declares nothing.
type SLOTargets = slo.Targets

// SLOReport is a point-in-time view of the rolling telemetry windows plus
// the SLO evaluation: per-phase and per-outcome-stage latency quantiles,
// windowed shed/admit rates, sampled sources (cache counters, worker
// utilization), burn rates, and violation totals. Served by the ops
// server's /slo endpoint and by Service.SLOReport; the zero Report (Enabled
// false) means the telemetry is off.
type SLOReport = slo.Report

// SLODist is one rolling-window latency distribution inside an SLOReport:
// observation count and interpolated quantiles in microseconds.
type SLODist = slo.Dist

// WithSLO declares service-level objectives: a target p99 system response
// time and a tolerated shed-rate fraction over the rolling window (either
// may be zero to declare no target on that axis). The tracker computes burn
// rates every tick and records an slo_violation span into the slow-action
// journal while out of objective. Implies the rolling-window telemetry.
// The windows read the service's metrics registry: two services recording
// into the same registry (both on the default one, say) share their /slo
// windows, as they already share /metrics.
func WithSLO(p99SRT time.Duration, maxShedRate float64) Option {
	return service.WithSLO(p99SRT, maxShedRate)
}

// WithSLOWindow sets the rolling telemetry window (default 5s) and turns
// the windowed telemetry on even without declared targets.
func WithSLOWindow(d time.Duration) Option { return service.WithSLOWindow(d) }

// FaultInjector is the deterministic fault injector armed via
// WithFaultInjection; configure per-site rules with Set.
type FaultInjector = faultinject.Injector

// FaultRule configures when (per-site hit counter) and how (latency, error,
// panic) one instrumented site misbehaves.
type FaultRule = faultinject.Rule

// FaultSite identifies an instrumented hook point (verification, candidate
// cache, index probes).
type FaultSite = faultinject.Site

// NewFaultInjector returns an empty injector (no rules armed).
func NewFaultInjector() *FaultInjector { return faultinject.New() }

// OverloadError is the typed admission rejection: which bound was hit
// ("global" or "session") and a deterministic retry-after hint. It unwraps
// to ErrOverloaded.
type OverloadError = service.OverloadError

// Retry invokes fn with exponential backoff (honoring OverloadError
// retry-after hints) until it succeeds, a non-transient error occurs, or
// attempts are exhausted. Only ErrOverloaded and injected faults are
// retried.
func Retry(ctx context.Context, attempts int, base time.Duration, fn func() error) error {
	return service.Retry(ctx, attempts, base, fn)
}

// RunOutcome is the full ladder outcome of a Run: the ranked results plus
// the degradation stage, the Truncated flag (set on every answer that may
// be a subset of the truth), and the count of recovered verification
// faults. Returned by ManagedSession.RunDetailed.
type RunOutcome = core.RunOutcome

// DegradeStage names the ladder stage that produced a Run's answer:
// StageFull, StagePartial, StageSimilarity, or StageCachedGood.
type DegradeStage = core.DegradeStage

// The ladder stages, in degradation order. Every stage below StageFull is
// flagged Truncated and sound: true answer-set members with valid distance
// bounds, never fabrications.
const (
	StageFull       = core.StageFull
	StagePartial    = core.StagePartial
	StageSimilarity = core.StageSimilarity
	StageCachedGood = core.StageCachedGood
)

// Fault-injection sites (see FaultRule / WithFaultInjection).
const (
	FaultSiteVerify = faultinject.SiteVerify
	FaultSiteCache  = faultinject.SiteCache
	FaultSiteIndex  = faultinject.SiteIndex
)

// TraceReport is the per-Run SRT breakdown assembled from a traced span
// tree: phase durations, candidates verified vs. pruned, and candidate-
// cache effectiveness. Returned by ManagedSession.TraceReport; Render
// formats it as an aligned table.
type TraceReport = trace.RunReport

// TracePhase aggregates the spans of one evaluation phase in a TraceReport.
type TracePhase = trace.PhaseStat

// TraceSpan is one node of a recorded span tree (JSON-serializable; what
// the ops server's /trace/slow returns).
type TraceSpan = trace.SpanData

// NewService builds a concurrent session service over a GraphStore, the one
// handle for the database, the indexes, and online mutation; a nil store
// returns ErrEmptyDatabase. Close the service when done: it owns background
// goroutines. It does not own the store — whoever built the store closes it,
// after the service.
func NewService(st GraphStore, opts ...Option) (*Service, error) {
	return service.NewFromStore(st, opts...)
}

// Canned patterns for Session.AddPattern — the drag-and-drop composition
// style the paper's §I footnote mentions (e.g. dropping a whole benzene
// ring); internally each pattern edge is still drawn and evaluated
// one at a time, so all blending guarantees hold.

// Benzene returns the six-carbon ring pattern (unlabeled edges).
func Benzene() *Graph { return patterns.Benzene() }

// KekuleBenzene returns the benzene ring with alternating single/double
// bond labels, for edge-labeled databases.
func KekuleBenzene() *Graph { return patterns.KekuleBenzene() }

// BondedRing returns a cycle whose edges carry per-edge bond labels.
func BondedRing(labels, bonds []string) (*Graph, error) {
	return patterns.BondedRing(labels, bonds)
}

// Ring returns a cycle pattern over the given node labels (≥ 3).
func Ring(labels ...string) (*Graph, error) { return patterns.Ring(labels...) }

// Chain returns a path pattern over the given node labels (≥ 2).
func Chain(labels ...string) (*Graph, error) { return patterns.Chain(labels...) }

// Star returns a star pattern: center label plus ≥ 1 leaf labels; node 0 is
// the center.
func Star(center string, leaves ...string) (*Graph, error) {
	return patterns.Star(center, leaves...)
}
