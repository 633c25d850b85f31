// Package service multiplexes many concurrent PRAGUE formulation sessions
// over one graph store — the layer between a visual front-end fleet and the
// single-user core engine. A Service owns a shared bounded verification
// worker pool (so total verification concurrency stays fixed no matter how
// many users are formulating), id-addressed sessions with per-session
// mutexes, an idle-session janitor, and a metrics registry observing every
// step. The store is a live handle: Service.InsertGraph and Service.DeleteGraph mutate
// the database online with incremental index maintenance, publishing epoch
// snapshots that in-flight sessions are pinned against — every action
// observes exactly one epoch.
//
// Relative to the bare core.Engine, the service also enforces the explicit
// formulation protocol: Run on a session whose exact candidate set emptied
// returns ErrAwaitingChoice until the caller resolves the Modify-or-SimQuery
// decision, rather than silently degrading.
package service

import (
	"context"
	"errors"
	"fmt"
	"io"
	"strconv"
	"sync"
	"sync/atomic"
	"time"

	"prague/internal/candcache"
	"prague/internal/clock"
	"prague/internal/core"
	"prague/internal/faultinject"
	"prague/internal/graph"
	"prague/internal/index"
	"prague/internal/metrics"
	"prague/internal/ops"
	"prague/internal/rpcstore"
	"prague/internal/slo"
	"prague/internal/store"
	"prague/internal/trace"
	"prague/internal/workpool"
)

// Sentinel errors of the service layer; core's sentinels (ErrEmptyQuery,
// ErrAwaitingChoice, ...) pass through wrapped.
var (
	// ErrSessionNotFound: the session id is unknown, deleted, or evicted.
	ErrSessionNotFound = errors.New("session not found")
	// ErrServiceClosed: the service has been shut down.
	ErrServiceClosed = errors.New("service closed")
	// ErrTooManySessions: the configured session limit is reached.
	ErrTooManySessions = errors.New("session limit reached")
	// ErrNoTrace: a trace report was requested but tracing is disabled or
	// the session has no traced Run yet.
	ErrNoTrace = errors.New("no traced run")
)

// DefaultCandCacheBytes is the default byte budget of the shared
// cross-session candidate cache. 32 MiB holds roughly a quarter-million
// average candidate lists of the AIDS-scale datasets — far more distinct
// fragments than a realistic formulation fleet touches — while staying
// negligible next to the indexes.
const DefaultCandCacheBytes = 32 << 20

// Options collects the construction-time knobs; set them via the With*
// functional options.
type Options struct {
	Sigma         int
	VerifyWorkers int
	SessionTTL    time.Duration
	MaxSessions   int
	CandCache     int64
	Metrics       *metrics.Registry
	Clock         clock.Clock

	// Store layout: an explicit pre-built store wins; otherwise
	// RemoteEndpoints dials a remote shard-server topology (the service
	// owns the dialed store and closes it on Close); otherwise Shards > 1
	// hash-partitions the database at construction; otherwise the store is
	// monolithic.
	Store           store.Store
	Shards          int
	RemoteEndpoints []string

	Trace         bool          // record per-action span trees
	SlowThreshold time.Duration // slow-journal admission threshold
	SlowJournal   int           // slow-journal capacity (0: trace default)
	OpsAddr       string        // ops/debug HTTP listen address ("" disables)

	// Robustness knobs (see overload.go and the core degradation ladder).
	MaxInFlight    int                   // global in-flight evaluating actions (0: unlimited)
	SessionQueue   int                   // per-session in-flight + queued actions (0: unlimited)
	ActionDeadline time.Duration         // per-action budget; Run degrades, others cancel (0: none)
	Injector       *faultinject.Injector // deterministic fault injection (nil: none)

	FilterMode core.FilterMode // verify-prefilter arm selection (default FilterAuto)

	// SLO telemetry / adaptive runtime (see prague/internal/slo). The
	// windowed collector turns on when any of these is set.
	SLO           slo.Targets   // declared SLO targets (zero: none declared)
	SLOWindow     time.Duration // rolling-window span (0: slo.DefaultWindow)
	Adaptive      bool          // apply the telemetry-driven controllers
	AdaptInterval time.Duration // tracker/controller tick (0: window/8)

	janitorHook func(evicted int) // test observability for janitor sweeps
}

// Option configures a Service at construction.
type Option func(*Options)

// WithSigma sets the subgraph distance threshold σ for sessions (default 3,
// the paper's setting).
func WithSigma(sigma int) Option { return func(o *Options) { o.Sigma = sigma } }

// WithVerifyWorkers bounds the shared verification pool (default
// GOMAXPROCS).
func WithVerifyWorkers(n int) Option { return func(o *Options) { o.VerifyWorkers = n } }

// WithSessionTTL sets how long an idle session survives before the janitor
// evicts it (default 30m; ≤ 0 disables eviction).
func WithSessionTTL(d time.Duration) Option { return func(o *Options) { o.SessionTTL = d } }

// WithMaxSessions caps concurrently live sessions (default 0: unlimited).
func WithMaxSessions(n int) Option { return func(o *Options) { o.MaxSessions = n } }

// WithMetrics records service metrics into reg instead of metrics.Default.
func WithMetrics(reg *metrics.Registry) Option { return func(o *Options) { o.Metrics = reg } }

// WithCandidateCache sets the byte budget of the shared cross-session
// candidate/result cache (default DefaultCandCacheBytes; ≤ 0 disables
// caching entirely).
func WithCandidateCache(bytes int64) Option { return func(o *Options) { o.CandCache = bytes } }

// WithClock overrides the time source (tests inject a clock.Fake so
// TTL/idle-eviction behaviour is deterministic).
func WithClock(c clock.Clock) Option { return func(o *Options) { o.Clock = c } }

// WithStore serves sessions from a pre-built graph store (e.g. a sharded
// store loaded from its persisted per-shard layout); NewFromStore is the
// shorthand. The db and idx arguments of New are ignored and deprecated when
// this option is present. While the service is live, mutate the store through
// Service.InsertGraph / Service.DeleteGraph rather than directly, so mutations pass
// admission control and land in the metrics.
func WithStore(st store.Store) Option { return func(o *Options) { o.Store = st } }

// WithShards hash-partitions the database and its action-aware indexes into
// n shards at construction; candidate enumeration and verification then fan
// out per shard and merge deterministically, so results are byte-identical
// to the monolithic layout. n ≤ 1 keeps the monolithic store (the default).
// Ignored when WithStore supplies a store directly.
func WithShards(n int) Option { return func(o *Options) { o.Shards = n } }

// WithRemoteShards serves sessions from a remote shard-server topology:
// New dials every endpoint (rpcstore shard servers over TCP), validates
// that the replicas agree on layout and epoch, and builds the coordinator
// store. The engine, candidate cache, and SLO runtime are unchanged — only
// candidate enumeration and mutation cross the network. The service owns
// the dialed store and closes it on Close. Ignored when WithStore supplies
// a store directly.
func WithRemoteShards(endpoints ...string) Option {
	return func(o *Options) { o.RemoteEndpoints = endpoints }
}

// WithTracing enables (or disables) per-action structured tracing: every
// AddEdge/DeleteEdge/Run records a span tree of its evaluation phases, SRT
// breakdown reports become available per session, and phase_* histograms
// feed the metrics registry. Disabled tracing costs one atomic nil-check
// per action (default: disabled).
func WithTracing(on bool) Option { return func(o *Options) { o.Trace = on } }

// WithSlowThreshold admits only traced actions at least this slow into the
// bounded slow-action journal (0, the default, journals every traced
// action). Implies WithTracing(true).
func WithSlowThreshold(d time.Duration) Option {
	return func(o *Options) { o.Trace = true; o.SlowThreshold = d }
}

// WithSlowJournalSize bounds the slow-action journal to the n slowest span
// trees (default trace.DefaultJournalSize). Implies WithTracing(true).
func WithSlowJournalSize(n int) Option {
	return func(o *Options) { o.Trace = true; o.SlowJournal = n }
}

// WithOpsServer serves the live ops/debug surface on addr (host:port;
// ":0" picks a free port — read it back with OpsAddr): /healthz, /metrics,
// /trace/slow, and /debug/pprof. The server stops with Close.
func WithOpsServer(addr string) Option { return func(o *Options) { o.OpsAddr = addr } }

// WithMaxInFlight bounds the service-wide number of evaluating actions
// (AddEdge/DeleteEdge/ChooseSimilarity/Run) in flight at once. Excess
// actions are shed immediately with a typed *OverloadError instead of
// queueing (default 0: unlimited).
func WithMaxInFlight(n int) Option { return func(o *Options) { o.MaxInFlight = n } }

// WithSessionQueue bounds, per session, the number of evaluating actions
// running or waiting on the session's serializing mutex. One misbehaving
// client cannot pile work service-wide (default 0: unlimited).
func WithSessionQueue(n int) Option { return func(o *Options) { o.SessionQueue = n } }

// WithActionDeadline budgets each evaluating action. Run degrades down the
// core ladder when the budget expires (partial → similarity bounds → last
// known good), so admitted Runs answer within ~the deadline; formulation
// actions are cancelled at the deadline and report a wrapped
// context.DeadlineExceeded (default 0: no budget).
func WithActionDeadline(d time.Duration) Option { return func(o *Options) { o.ActionDeadline = d } }

// WithFilterChooser sets the verify-prefilter mode for every session's
// engine: core.FilterAuto (the default) picks per action between the bare
// A²F probe, Grafil-style count filtering, and signature pruning from a
// small cost model; the other modes pin one arm. All arms return identical
// verified answers — the mode only changes how much work verification does.
// Decisions surface in the filter_arm_* / filter_pruned_total metrics and
// trace spans.
func WithFilterChooser(m core.FilterMode) Option { return func(o *Options) { o.FilterMode = m } }

// WithFaultInjection arms deterministic fault injection on every action the
// service evaluates (chaos testing; see prague/internal/faultinject). A nil
// injector — the default — costs nothing on the hot path.
func WithFaultInjection(in *faultinject.Injector) Option { return func(o *Options) { o.Injector = in } }

// WithSLO declares the service-level objectives — a target p99 system
// response time and a tolerated shed-rate fraction over the rolling window —
// and turns on the windowed SLO telemetry (phase/stage histograms, rate
// windows, /slo endpoint, burn rates, violation spans in the trace journal).
// Zero values declare no target on that axis but still enable the windows.
func WithSLO(p99SRT time.Duration, maxShedRate float64) Option {
	return func(o *Options) { o.SLO = slo.Targets{P99SRT: p99SRT, MaxShedRate: maxShedRate} }
}

// WithSLOWindow sets the rolling-window span of the SLO telemetry (default
// slo.DefaultWindow) and enables it even without declared targets.
func WithSLOWindow(d time.Duration) Option { return func(o *Options) { o.SLOWindow = d } }

// WithAdaptive turns on the telemetry-driven controllers: workpool size,
// admission MaxInFlight, and candidate-cache byte budget are adjusted from
// the rolling windows on every tracker tick, each change emitted as an
// adapt trace span and adapt_* metric. Implies the SLO telemetry.
func WithAdaptive(on bool) Option { return func(o *Options) { o.Adaptive = on } }

// WithAdaptInterval overrides the tracker/controller tick interval (default
// one eighth of the rolling window). Benchmarks and tests shorten it so the
// controllers converge inside a bounded run.
func WithAdaptInterval(d time.Duration) Option { return func(o *Options) { o.AdaptInterval = d } }

// withJanitorHook registers a callback invoked after every janitor sweep
// with the number of sessions it evicted (tests).
func withJanitorHook(fn func(evicted int)) Option {
	return func(o *Options) { o.janitorHook = fn }
}

// Service serves concurrent formulation sessions over one immutable
// database + index pair. All methods are safe for concurrent use.
type Service struct {
	st         store.Store
	ownedStore io.Closer // set when New dialed the store itself (remote shards)
	opt        Options
	pool       *workpool.Pool
	reg        *metrics.Registry
	clk        clock.Clock
	cache      *candcache.Cache // shared across sessions; nil when disabled
	tracer     *trace.Tracer    // nil when tracing was never requested
	ops        *ops.Server      // nil unless WithOpsServer

	// Global admission bound: inflightN counts actions in flight,
	// inflightLimit is the adjustable cap (0: unlimited). Admission is
	// non-blocking and lock-free (overload.go); the cap being an atomic —
	// rather than a channel capacity — is what lets the adaptive runtime's
	// admission controller move it while the service serves.
	inflightN     atomic.Int64
	inflightLimit atomic.Int64

	// SLO telemetry / adaptive runtime (nil unless enabled via options).
	col         *slo.Collector
	slotrack    *slo.Tracker
	controllers []*slo.Controller

	mu       sync.Mutex
	sessions map[string]*Session
	nextID   int64
	closed   bool

	stopJanitor chan struct{}
	janitorDone chan struct{}
	stopAdapt   chan struct{}
	adaptDone   chan struct{}
}

// NewFromStore builds a service directly over a graph store — the primary
// construction path: the store is the one handle for the database, its
// indexes, and online mutation. Monolithic (store.NewMem), hash-partitioned
// (store.NewSharded), and reloaded (store.LoadMem / store.LoadSharded)
// stores all serve identically.
func NewFromStore(st store.Store, opts ...Option) (*Service, error) {
	if st == nil {
		return nil, fmt.Errorf("service: nil store: %w", core.ErrNilIndex)
	}
	return New(nil, nil, append(append([]Option(nil), opts...), WithStore(st))...)
}

// New builds a service over the database and indexes, wrapping them in a
// monolithic store (or a sharded one under WithShards). New is the thin
// compatibility path; NewFromStore is primary. When WithStore is also
// passed, db and idx are redundant and ignored — pass them as nil or migrate
// to NewFromStore.
func New(db []*graph.Graph, idx *index.Set, opts ...Option) (*Service, error) {
	opt := Options{Sigma: 3, SessionTTL: 30 * time.Minute, CandCache: DefaultCandCacheBytes}
	for _, o := range opts {
		o(&opt)
	}
	if opt.Sigma < 0 {
		return nil, fmt.Errorf("service: σ = %d: %w", opt.Sigma, core.ErrNegativeSigma)
	}
	st := opt.Store
	ownedStore := false
	if st == nil {
		var err error
		switch {
		case len(opt.RemoteEndpoints) > 0:
			st, err = rpcstore.Dial(context.Background(), opt.RemoteEndpoints)
			ownedStore = err == nil
		case opt.Shards > 1:
			st, err = store.NewSharded(db, idx, opt.Shards)
		default:
			st, err = store.NewMem(db, idx)
		}
		if err != nil {
			return nil, fmt.Errorf("service: %w", err)
		}
	}
	reg := opt.Metrics
	if reg == nil {
		reg = metrics.Default
	}
	clk := opt.Clock
	if clk == nil {
		clk = clock.Real{}
	}
	s := &Service{
		st:       st,
		opt:      opt,
		pool:     workpool.New(opt.VerifyWorkers),
		reg:      reg,
		clk:      clk,
		cache:    candcache.New(opt.CandCache, reg),
		sessions: map[string]*Session{},
	}
	if ownedStore {
		s.ownedStore, _ = st.(io.Closer)
	}
	// A store that exports its own counters (the remote coordinator's
	// shard_rpc_* family and endpoint-health gauges) reports into the
	// service's registry.
	if ms, ok := st.(interface{ SetMetrics(*metrics.Registry) }); ok {
		ms.SetMetrics(reg)
	}
	reg.Counter(metrics.CounterShardCount).Set(int64(st.NumShards()))
	minG, maxG := st.Shard(0).NumGraphs(), st.Shard(0).NumGraphs()
	for i := 1; i < st.NumShards(); i++ {
		if n := st.Shard(i).NumGraphs(); n < minG {
			minG = n
		} else if n > maxG {
			maxG = n
		}
	}
	reg.Counter(metrics.CounterShardGraphsMin).Set(int64(minG))
	reg.Counter(metrics.CounterShardGraphsMax).Set(int64(maxG))
	if opt.Trace {
		s.tracer = trace.New(trace.Options{
			Enabled:       true,
			SlowThreshold: opt.SlowThreshold,
			JournalSize:   opt.SlowJournal,
			Registry:      reg,
		})
	}
	if opt.MaxInFlight > 0 {
		s.inflightLimit.Store(int64(opt.MaxInFlight))
	}
	s.initSLO() // before ops: /slo reads the tracker
	if opt.OpsAddr != "" {
		srv, err := ops.New(opt.OpsAddr, reg, s.tracer, func() error {
			s.mu.Lock()
			defer s.mu.Unlock()
			if s.closed {
				return ErrServiceClosed
			}
			return nil
		}, s.SLOReport)
		if err != nil {
			s.pool.Close()
			return nil, fmt.Errorf("service: %w", err)
		}
		s.ops = srv
	}
	s.pool.OnBatch = func(n int) {
		reg.Counter(metrics.CounterVerifyTasks).Add(int64(n))
		reg.Counter(metrics.CounterVerifyBatches).Inc()
	}
	s.pool.OnPanic = func(any) {
		reg.Counter(metrics.CounterWorkerPanics).Inc()
	}
	if opt.SessionTTL > 0 {
		interval := opt.SessionTTL / 4
		if interval < 10*time.Millisecond {
			interval = 10 * time.Millisecond
		}
		s.stopJanitor = make(chan struct{})
		s.janitorDone = make(chan struct{})
		// The ticker is created here, not in the goroutine, so a test clock
		// advanced right after New is guaranteed to reach it.
		go s.janitor(clk.NewTicker(interval))
	}
	return s, nil
}

// Close shuts the service down: the janitor stops, the verification pool
// drains, and all sessions are dropped. Further calls return
// ErrServiceClosed; Close is idempotent.
func (s *Service) Close() {
	s.mu.Lock()
	if s.closed {
		s.mu.Unlock()
		return
	}
	s.closed = true
	victims := make([]*Session, 0, len(s.sessions))
	for id, ss := range s.sessions {
		victims = append(victims, ss)
		delete(s.sessions, id)
	}
	s.mu.Unlock()

	for _, ss := range victims {
		ss.mu.Lock()
		ss.gone = true
		ss.svcClosed = true
		ss.mu.Unlock()
	}
	s.reg.Counter(metrics.CounterSessionsActive).Add(-int64(len(victims)))
	if s.stopJanitor != nil {
		close(s.stopJanitor)
		<-s.janitorDone
	}
	if s.stopAdapt != nil {
		close(s.stopAdapt)
		<-s.adaptDone
	}
	s.pool.Close()
	s.ops.Close() //nolint:errcheck // shutdown timeout only
	if s.ownedStore != nil {
		s.ownedStore.Close() //nolint:errcheck // remote conn teardown
	}
}

// Metrics returns the registry the service records into.
func (s *Service) Metrics() *metrics.Registry { return s.reg }

// Tracer returns the service's tracer, or nil when tracing was never
// requested (trace.Tracer methods are nil-safe).
func (s *Service) Tracer() *trace.Tracer { return s.tracer }

// SlowSpans returns the slow-action journal: the full span trees of the
// slowest traced actions, slowest first. Empty without tracing.
func (s *Service) SlowSpans() []*trace.SpanData { return s.tracer.SlowSpans() }

// OpsAddr returns the bound address of the ops/debug server, or "" when
// WithOpsServer was not used.
func (s *Service) OpsAddr() string { return s.ops.Addr() }

// CandidateCache returns the shared cross-session candidate cache, or nil
// when caching is disabled.
func (s *Service) CandidateCache() *candcache.Cache { return s.cache }

// Store returns the graph store sessions evaluate against (monolithic
// unless constructed with WithShards, WithRemoteShards, or WithStore).
func (s *Service) Store() store.Store { return s.st }

// ShardHealth reports per-shard endpoint health when the store serves a
// remote topology (WithRemoteShards), or nil for in-process stores.
func (s *Service) ShardHealth() []store.ShardHealth {
	if hr, ok := s.st.(store.HealthReporter); ok {
		return hr.ShardHealthReport()
	}
	return nil
}

// Snapshot captures the current metrics.
func (s *Service) Snapshot() metrics.Snapshot { return s.reg.Snapshot() }

// Sigma returns the σ sessions are created with.
func (s *Service) Sigma() int { return s.opt.Sigma }

// Len returns the number of live sessions.
func (s *Service) Len() int {
	s.mu.Lock()
	defer s.mu.Unlock()
	return len(s.sessions)
}

// Create starts a new formulation session and returns its handle. The
// session is also addressable by id via Get until deleted or evicted.
func (s *Service) Create(ctx context.Context) (*Session, error) {
	if err := ctx.Err(); err != nil {
		return nil, fmt.Errorf("service: create: %w", err)
	}
	eng, err := core.NewWithStore(s.st, s.opt.Sigma)
	if err != nil {
		return nil, fmt.Errorf("service: create: %w", err)
	}
	eng.SetPool(s.pool)
	eng.SetCandidateCache(s.cache)
	eng.SetRunBudget(s.opt.ActionDeadline)
	eng.SetFilterChooser(s.opt.FilterMode)
	eng.SetFilterObserver(func(d core.FilterDecision) {
		switch d.Arm {
		case core.ArmGrafil:
			s.reg.Counter(metrics.CounterFilterArmGrafil).Inc()
		case core.ArmSignature:
			s.reg.Counter(metrics.CounterFilterArmSignature).Inc()
		default:
			s.reg.Counter(metrics.CounterFilterArmProbe).Inc()
		}
		if n := d.Candidates - d.Kept; n > 0 {
			s.reg.Counter(metrics.CounterFilterPruned).Add(int64(n))
		}
	})

	s.mu.Lock()
	if s.closed {
		s.mu.Unlock()
		return nil, fmt.Errorf("service: create: %w", ErrServiceClosed)
	}
	if s.opt.MaxSessions > 0 && len(s.sessions) >= s.opt.MaxSessions {
		s.mu.Unlock()
		return nil, fmt.Errorf("service: create: %d live: %w", s.opt.MaxSessions, ErrTooManySessions)
	}
	s.nextID++
	ss := &Session{
		id:       fmt.Sprintf("s%06d", s.nextID),
		svc:      s,
		eng:      eng,
		lastUsed: s.clk.Now(),
	}
	s.sessions[ss.id] = ss
	s.mu.Unlock()

	s.reg.Counter(metrics.CounterSessionsCreated).Inc()
	s.reg.Counter(metrics.CounterSessionsActive).Inc()
	return ss, nil
}

// Get resolves a session id.
func (s *Service) Get(id string) (*Session, error) {
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.closed {
		return nil, fmt.Errorf("service: get %q: %w", id, ErrServiceClosed)
	}
	ss := s.sessions[id]
	if ss == nil {
		return nil, fmt.Errorf("service: get %q: %w", id, ErrSessionNotFound)
	}
	return ss, nil
}

// Delete removes a session. In-flight calls on the session finish; later
// calls fail with ErrSessionNotFound.
func (s *Service) Delete(id string) error {
	s.mu.Lock()
	ss := s.sessions[id]
	if ss == nil {
		closed := s.closed
		s.mu.Unlock()
		if closed {
			return fmt.Errorf("service: delete %q: %w", id, ErrServiceClosed)
		}
		return fmt.Errorf("service: delete %q: %w", id, ErrSessionNotFound)
	}
	delete(s.sessions, id)
	s.mu.Unlock()

	ss.mu.Lock()
	ss.gone = true
	ss.mu.Unlock()
	s.reg.Counter(metrics.CounterSessionsDeleted).Inc()
	s.reg.Counter(metrics.CounterSessionsActive).Add(-1)
	return nil
}

// EvictIdle reaps sessions idle for longer than the TTL and returns how
// many it removed. The janitor calls this periodically; tests may call it
// directly. Sessions with a call in flight hold their own mutex and are
// skipped (they are, by definition, not idle).
func (s *Service) EvictIdle() int {
	ttl := s.opt.SessionTTL
	if ttl <= 0 {
		return 0
	}
	cutoff := s.clk.Now().Add(-ttl)
	s.mu.Lock()
	var evicted int
	for id, ss := range s.sessions {
		if !ss.mu.TryLock() {
			continue
		}
		if ss.lastUsed.Before(cutoff) {
			ss.gone = true
			delete(s.sessions, id)
			evicted++
		}
		ss.mu.Unlock()
	}
	s.mu.Unlock()
	if evicted > 0 {
		s.reg.Counter(metrics.CounterSessionsEvicted).Add(int64(evicted))
		s.reg.Counter(metrics.CounterSessionsActive).Add(-int64(evicted))
	}
	return evicted
}

func (s *Service) janitor(t clock.Ticker) {
	defer close(s.janitorDone)
	defer t.Stop()
	for {
		select {
		case <-s.stopJanitor:
			return
		case <-t.C():
			n := s.EvictIdle()
			if s.opt.janitorHook != nil {
				s.opt.janitorHook(n)
			}
		}
	}
}

// Session is one user's formulation session, multiplexed by a Service. All
// methods are safe for concurrent use; a per-session mutex serializes the
// formulation actions (the engine models a single user's canvas).
type Session struct {
	id  string
	svc *Service

	// pending counts this session's evaluating actions running or queued on
	// mu; the per-session admission bound reads it without the lock.
	pending atomic.Int64

	mu        sync.Mutex
	eng       *core.Engine
	lastUsed  time.Time
	gone      bool
	svcClosed bool            // gone because the whole service shut down
	lastRun   *trace.SpanData // finished span tree of the latest traced Run
}

// ID returns the service-unique session identifier.
func (ss *Session) ID() string { return ss.id }

// begin locks the session and checks liveness; callers must End (unlock).
// An action racing Close gets the typed ErrServiceClosed (the session is
// gone because the service is), never a stale-state access: the Close path
// marks every victim under its own mutex before tearing anything down.
func (ss *Session) begin() error {
	ss.mu.Lock()
	if ss.gone {
		closed := ss.svcClosed
		ss.mu.Unlock()
		if closed {
			return fmt.Errorf("service: session %s: %w", ss.id, ErrServiceClosed)
		}
		return fmt.Errorf("service: session %s: %w", ss.id, ErrSessionNotFound)
	}
	ss.lastUsed = ss.svc.clk.Now()
	return nil
}

// actionCtx instruments an evaluating action's context: the service's fault
// injector crosses over, and — when budget is true — the per-action
// deadline applies. The returned cancel must always be called.
func (ss *Session) actionCtx(ctx context.Context, budget bool) (context.Context, context.CancelFunc) {
	ctx = faultinject.With(ctx, ss.svc.opt.Injector)
	if budget {
		if d := ss.svc.opt.ActionDeadline; d > 0 {
			return context.WithTimeout(ctx, d)
		}
	}
	return ctx, func() {}
}

// AddNode drops a labeled node on the canvas and returns its stable id.
func (ss *Session) AddNode(label string) (int, error) {
	if err := ss.begin(); err != nil {
		return 0, err
	}
	defer ss.mu.Unlock()
	return ss.eng.AddNode(label), nil
}

// AddEdge draws an edge and returns what the engine precomputed during the
// step's latency window.
func (ss *Session) AddEdge(ctx context.Context, u, v int) (core.StepOutcome, error) {
	return ss.AddLabeledEdge(ctx, u, v, "")
}

// AddLabeledEdge is AddEdge for an edge carrying an edge label.
func (ss *Session) AddLabeledEdge(ctx context.Context, u, v int, label string) (core.StepOutcome, error) {
	release, err := ss.admit()
	if err != nil {
		return core.StepOutcome{}, err
	}
	defer release()
	if err := ss.begin(); err != nil {
		return core.StepOutcome{}, err
	}
	defer ss.mu.Unlock()
	actx, cancel := ss.actionCtx(ctx, true)
	defer cancel()
	tctx, sp := ss.svc.tracer.StartRoot(actx, trace.KindAddEdge)
	sp.SetAttr("session", ss.id)
	out, err := ss.eng.AddLabeledEdgeCtx(tctx, u, v, label)
	if err != nil {
		sp.SetAttr("error", err.Error())
		sp.End()
		return core.StepOutcome{}, err
	}
	sp.SetAttr("status", out.Status.String())
	sp.Add("step", int64(out.Step))
	sp.End()
	ss.observeStep(out)
	return out, nil
}

// ChooseSimilarity resolves a pending empty-Rq choice by continuing as a
// similarity query.
func (ss *Session) ChooseSimilarity(ctx context.Context) (core.StepOutcome, error) {
	release, err := ss.admit()
	if err != nil {
		return core.StepOutcome{}, err
	}
	defer release()
	if err := ss.begin(); err != nil {
		return core.StepOutcome{}, err
	}
	defer ss.mu.Unlock()
	actx, cancel := ss.actionCtx(ctx, true)
	defer cancel()
	tctx, sp := ss.svc.tracer.StartRoot(actx, trace.KindChooseSim)
	sp.SetAttr("session", ss.id)
	out, err := ss.eng.ChooseSimilarityCtx(tctx)
	sp.End()
	return out, err
}

// DeleteEdge removes the edge drawn at the given step.
func (ss *Session) DeleteEdge(ctx context.Context, step int) (core.StepOutcome, error) {
	release, err := ss.admit()
	if err != nil {
		return core.StepOutcome{}, err
	}
	defer release()
	if err := ss.begin(); err != nil {
		return core.StepOutcome{}, err
	}
	defer ss.mu.Unlock()
	actx, cancel := ss.actionCtx(ctx, true)
	defer cancel()
	tctx, sp := ss.svc.tracer.StartRoot(actx, trace.KindDeleteEdge)
	sp.SetAttr("session", ss.id)
	sp.Add("step", int64(step))
	out, err := ss.eng.DeleteEdgeCtx(tctx, step)
	sp.End()
	if err != nil {
		return core.StepOutcome{}, err
	}
	st := ss.eng.Stats().ModificationTime
	if len(st) > 0 {
		ss.svc.reg.Histogram(metrics.HistModification).Observe(st[len(st)-1])
	}
	ss.svc.reg.Counter(metrics.CounterStepsEvaluated).Inc()
	return out, nil
}

// SuggestDeletion recommends which edge to delete when Rq is empty.
func (ss *Session) SuggestDeletion() (core.Suggestion, error) {
	if err := ss.begin(); err != nil {
		return core.Suggestion{}, err
	}
	defer ss.mu.Unlock()
	return ss.eng.SuggestDeletion()
}

// Run executes the query and returns the ranked results. Unlike the bare
// engine, a session that is awaiting the Modify-or-SimQuery choice refuses
// with ErrAwaitingChoice — the front-end must resolve the choice (or let
// ChooseSimilarity decide) before running. On cancellation Run returns
// promptly with the partial ranking and an error wrapping ctx.Err().
func (ss *Session) Run(ctx context.Context) ([]core.Result, error) {
	out, err := ss.RunDetailed(ctx)
	return out.Results, err
}

// RunDetailed is Run reporting the full ladder outcome: the results plus
// the Truncated flag, the degradation stage, and the fault count. With an
// action deadline configured, an admitted Run answers within roughly the
// budget — degraded and flagged rather than late or wrong.
func (ss *Session) RunDetailed(ctx context.Context) (core.RunOutcome, error) {
	release, err := ss.admit()
	if err != nil {
		return core.RunOutcome{}, err
	}
	defer release()
	if err := ss.begin(); err != nil {
		return core.RunOutcome{}, err
	}
	defer ss.mu.Unlock()
	if ss.eng.AwaitingChoice() {
		return core.RunOutcome{}, fmt.Errorf("service: session %s: run: %w", ss.id, core.ErrAwaitingChoice)
	}
	actx, cancel := ss.actionCtx(ctx, false) // Run's budget is the engine ladder's
	defer cancel()
	tctx, sp := ss.svc.tracer.StartRoot(actx, trace.KindRun)
	sp.SetAttr("session", ss.id)
	out, err := ss.eng.RunDetailedCtx(tctx)
	sp.Add("results", int64(len(out.Results)))
	if err != nil {
		sp.SetAttr("error", err.Error())
	}
	if sp != nil {
		// Slow-journal self-explanation: which prefilter arm served this Run
		// and which store epoch it was pinned to travel with the span tree,
		// so a journaled slow Run carries its own "why" without a separate
		// lookup against state that may have moved on.
		sp.SetAttr("filter", ss.eng.FilterExplain())
		sp.SetAttr("epoch", strconv.FormatUint(out.Epoch, 10))
	}
	sp.End()
	if d := sp.Data(); d != nil {
		ss.lastRun = d
	}
	ss.observeRun(out, err)
	if err != nil {
		return out, err
	}
	srt := ss.eng.Stats().RunTime
	ss.svc.reg.Counter(metrics.CounterRuns).Inc()
	ss.svc.reg.Histogram(metrics.HistSRT).Observe(srt)
	ss.svc.col.ObservePhase(slo.PhaseSRT, srt)
	ss.svc.col.ObserveStage(stageOf(out), srt)
	return out, nil
}

// observeRun records the ladder outcome: the per-stage counter family (a
// histogram over the ladder's discrete stages), truncations, dropped
// checks, and exhausted budgets. Caller holds ss.mu.
func (ss *Session) observeRun(out core.RunOutcome, err error) {
	reg := ss.svc.reg
	if errors.Is(err, core.ErrBudgetExhausted) {
		reg.Counter(metrics.CounterBudgetExhausted).Inc()
	}
	if err != nil {
		return
	}
	switch out.Stage {
	case core.StagePartial:
		reg.Counter(metrics.CounterDegradePartial).Inc()
	case core.StageSimilarity:
		reg.Counter(metrics.CounterDegradeSimilar).Inc()
	case core.StageCachedGood:
		reg.Counter(metrics.CounterDegradeCached).Inc()
	default:
		reg.Counter(metrics.CounterDegradeFull).Inc()
	}
	if out.Truncated {
		reg.Counter(metrics.CounterRunsTruncated).Inc()
	}
	if out.Faults > 0 {
		reg.Counter(metrics.CounterVerifyFaultTotal).Add(out.Faults)
	}
}

// TraceReport returns the SRT breakdown of the session's most recent traced
// Run: per-phase durations, candidates verified vs. pruned, and candidate-
// cache effectiveness. It fails with ErrNoTrace until a Run has executed
// with tracing enabled (WithTracing).
func (ss *Session) TraceReport() (trace.RunReport, error) {
	if err := ss.begin(); err != nil {
		return trace.RunReport{}, err
	}
	defer ss.mu.Unlock()
	if ss.lastRun == nil {
		return trace.RunReport{}, fmt.Errorf("service: session %s: %w (enable WithTracing and Run first)", ss.id, ErrNoTrace)
	}
	return trace.BuildReport(ss.lastRun), nil
}

// LastRunTrace returns the raw span tree of the most recent traced Run, or
// ErrNoTrace. The tree is finished and must not be mutated.
func (ss *Session) LastRunTrace() (*trace.SpanData, error) {
	if err := ss.begin(); err != nil {
		return nil, err
	}
	defer ss.mu.Unlock()
	if ss.lastRun == nil {
		return nil, fmt.Errorf("service: session %s: %w (enable WithTracing and Run first)", ss.id, ErrNoTrace)
	}
	return ss.lastRun, nil
}

// Explain reports how one data graph matches the current query.
func (ss *Session) Explain(graphID int) (*core.Match, error) {
	if err := ss.begin(); err != nil {
		return nil, err
	}
	defer ss.mu.Unlock()
	return ss.eng.Explain(graphID)
}

// Info is a point-in-time description of a session's formulation state.
type Info struct {
	ID             string
	QuerySize      int
	Steps          []int
	SimilarityMode bool
	AwaitingChoice bool
	ExactCount     int // |Rq| (containment mode)
	FreeCount      int // |Rfree| (similarity mode)
	VerCount       int // |Rver| (similarity mode)
	TotalCount     int // |Rfree ∪ Rver|
	SRT            time.Duration
}

// Describe snapshots the session state for status displays.
func (ss *Session) Describe() (Info, error) {
	if err := ss.begin(); err != nil {
		return Info{}, err
	}
	defer ss.mu.Unlock()
	free, ver, total := ss.eng.CandidateCounts()
	return Info{
		ID:             ss.id,
		QuerySize:      ss.eng.Query().Size(),
		Steps:          ss.eng.Query().Steps(),
		SimilarityMode: ss.eng.SimilarityMode(),
		AwaitingChoice: ss.eng.AwaitingChoice(),
		ExactCount:     len(ss.eng.Rq()),
		FreeCount:      free,
		VerCount:       ver,
		TotalCount:     total,
		SRT:            ss.eng.Stats().RunTime,
	}, nil
}

// QueryGraph snapshots the session's current query as a graph (nil when no
// edge is drawn yet). Oracles and differential harnesses use it to compute
// ground truth for exactly the query the session holds.
func (ss *Session) QueryGraph() (*graph.Graph, error) {
	if err := ss.begin(); err != nil {
		return nil, err
	}
	defer ss.mu.Unlock()
	if ss.eng.Query().Size() == 0 {
		return nil, nil
	}
	qg, _ := ss.eng.Query().Graph()
	return qg, nil
}

// SpigDump renders the session's SPIG set (debugging).
func (ss *Session) SpigDump() (string, error) {
	if err := ss.begin(); err != nil {
		return "", err
	}
	defer ss.mu.Unlock()
	return ss.eng.Spigs().Dump(), nil
}

// observeStep records one formulation step's measurements. Caller holds
// ss.mu.
func (ss *Session) observeStep(out core.StepOutcome) {
	reg := ss.svc.reg
	reg.Counter(metrics.CounterStepsEvaluated).Inc()
	reg.Histogram(metrics.HistSpigBuild).Observe(out.SpigTime)
	reg.Histogram(metrics.HistStepEval).Observe(out.EvalTime)
	ss.svc.col.ObservePhase(slo.PhaseSpigBuild, out.SpigTime)
}
