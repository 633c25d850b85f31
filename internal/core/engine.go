// Package core implements PRAGUE itself (the paper's Algorithm 1): the
// blended query engine that evaluates the visual query fragment after every
// GUI action, switching transparently between subgraph containment and
// subgraph similarity search, and supporting cheap query modification via
// the SPIG set.
package core

import (
	"context"
	"fmt"
	"sync/atomic"
	"time"

	"prague/internal/candcache"
	"prague/internal/graph"
	"prague/internal/index"
	"prague/internal/intset"
	"prague/internal/query"
	"prague/internal/spig"
	"prague/internal/store"
	"prague/internal/trace"
	"prague/internal/workpool"
)

// Status mirrors the Status column of the paper's Figure 3: how the engine
// currently classifies the query fragment.
type Status int

const (
	// StatusEmpty: the query has no edges yet.
	StatusEmpty Status = iota
	// StatusFrequent: the fragment is a frequent fragment with exact matches.
	StatusFrequent
	// StatusInfrequent: the fragment is infrequent but still has exact matches.
	StatusInfrequent
	// StatusSimilar: the fragment has no exact match; similarity search is
	// in effect (or being offered to the user).
	StatusSimilar
)

func (s Status) String() string {
	switch s {
	case StatusFrequent:
		return "frequent"
	case StatusInfrequent:
		return "infrequent"
	case StatusSimilar:
		return "similar"
	default:
		return "empty"
	}
}

// Result is one query answer: a data graph and its subgraph distance to the
// final query (0 for exact containment matches).
type Result struct {
	GraphID  int
	Distance int
}

// StepOutcome reports what happened after a GUI action, including what the
// engine precomputed during the step's latency window.
type StepOutcome struct {
	Step        int    // the edge's formulation step label ℓ (0 for deletions)
	Status      Status // classification after this action
	ExactCount  int    // |Rq| when in containment mode
	FreeCount   int    // |Rfree| when in similarity mode
	VerCount    int    // |Rver| when in similarity mode
	NeedsChoice bool   // Rq just became empty: the GUI must offer Modify / SimQuery
	SpigTime    time.Duration
	EvalTime    time.Duration
}

// Engine is a PRAGUE session over one graph store (monolithic or sharded).
// It is not safe for concurrent use: it models a single user's formulation
// session.
type Engine struct {
	st    store.Store
	sigma int

	// snap is the epoch snapshot the current action is pinned to. Every
	// action repins on entry (repin); all evaluation reads — graphs, shards,
	// cache keys, the live-id universe — go through snap, never st, so a
	// concurrent InsertGraph/DeleteGraph publishing a new epoch mid-action
	// can never mix two store states into one answer.
	snap store.Snapshot

	q       *query.Query
	spigs   *spig.Set
	simFlag bool
	pending bool // Rq empty in containment mode, awaiting the user's choice

	rq       []int                  // exact candidates (containment mode)
	rfree    levelSets              // verification-free candidates per level (similarity mode)
	rver     levelSets              // to-verify candidates per level (similarity mode)
	candMemo map[*spig.Vertex][]int // per-vertex Algorithm 3 results
	pool     *workpool.Pool         // shared verification pool (service-injected), or nil
	cache    *candcache.Cache       // shared cross-session candidate cache, or nil
	stats    SessionStats

	// Degradation ladder state (ladder.go). runFaults counts candidate
	// checks dropped by injected errors or recovered panics during the
	// current Run; it is atomic because the drops happen on pool workers.
	runBudget time.Duration
	runFaults atomic.Int64
	lastGood  []Result // results of the session's last fault-free Run
	// lastGoodEpoch tags lastGood with the epoch it was computed under; the
	// ladder's cached-good rung only serves it while the store is still at
	// that epoch (mutations may have invalidated any older answer).
	lastGoodEpoch uint64

	// stale marks candidate state that no longer reflects the query: the
	// last refresh was cancelled mid-recompute, so rq/rfree/rver belong to
	// an older query revision (or are empty). Run must recompute before
	// answering — serving stale sets would be silently incomplete.
	stale bool

	// probeScratch holds per-shard bitset scratch for Algorithm 3's NIF
	// list intersection. Indexed by shard id — computeCandidates runs at
	// most one goroutine per shard, so rows never race. Lazily sized.
	probeScratch []store.ProbeScratch

	// chooser state (chooser.go): the adaptive verify-prefilter.
	chooserMode  FilterMode
	chooserTab   *sigTable      // per-epoch per-graph signatures, lazily built
	chooserEpoch uint64         // epoch chooserTab was built against
	lastChoice   FilterDecision // most recent chooser decision, for Explain
	filterObs    func(FilterDecision)
}

// levelSets maps SPIG level -> sorted candidate id set.
type levelSets map[int][]int

// SessionStats accumulates per-session measurements used by the experiments.
type SessionStats struct {
	SpigConstruction []time.Duration // per New action, in order
	StepEvaluation   []time.Duration // candidate maintenance per New action
	ModificationTime []time.Duration // per Modify action
	RunTime          time.Duration   // the SRT: work done after Run is pressed
}

// New creates an engine over the monolithic layout: the given database,
// action-aware indexes, and subgraph distance threshold σ. The database must
// be non-empty with dense ids and the index set non-nil; violations return
// errors wrapping the store sentinels (ErrEmptyDatabase, ErrNilIndex).
func New(db []*graph.Graph, idx *index.Set, sigma int) (*Engine, error) {
	st, err := store.NewMem(db, idx)
	if err != nil {
		return nil, fmt.Errorf("core: %w", err)
	}
	return NewWithStore(st, sigma)
}

// NewWithStore creates an engine over an already-constructed graph store —
// monolithic (store.NewMem) or hash-partitioned (store.NewSharded). Sharded
// evaluation fans candidate maintenance and verification out per shard and
// merges deterministically, so results are byte-identical across layouts.
func NewWithStore(st store.Store, sigma int) (*Engine, error) {
	if st == nil {
		return nil, fmt.Errorf("core: nil store: %w", ErrNilIndex)
	}
	if sigma < 0 {
		return nil, fmt.Errorf("core: σ = %d: %w", sigma, ErrNegativeSigma)
	}
	snap := st.Pin()
	return &Engine{st: st, sigma: sigma, snap: snap, q: query.New(), spigs: spig.NewSet(snap)}, nil
}

// repin aligns the action about to run with the store's latest published
// epoch and returns the pinned snapshot. When the epoch moved since the last
// action, everything derived from the old epoch is invalidated: the SPIG
// classifier is rebound, the per-vertex candidate memo is dropped, and the
// candidate sets are marked stale so the next evaluation recomputes them.
// Within one action the snapshot never changes — that is the single-epoch
// guarantee concurrent mutations are measured against.
func (e *Engine) repin() store.Snapshot {
	ns := e.st.Pin()
	if e.snap != nil && ns.Epoch() == e.snap.Epoch() {
		return e.snap
	}
	e.snap = ns
	e.spigs.SetClassifier(ns)
	e.candMemo = nil
	if e.q.Size() > 0 {
		e.stale = true // rq/rfree/rver were computed against an older epoch
	}
	return ns
}

// Snapshot returns the epoch snapshot the engine's current candidate state
// is pinned to.
func (e *Engine) Snapshot() store.Snapshot { return e.snap }

// Store returns the graph store the engine evaluates against.
func (e *Engine) Store() store.Store { return e.st }

// Sigma returns the engine's subgraph distance threshold.
func (e *Engine) Sigma() int { return e.sigma }

// Query returns the engine's evolving query (owned by the engine; callers
// must mutate it only through engine methods).
func (e *Engine) Query() *query.Query { return e.q }

// Spigs exposes the SPIG set for inspection (experiments, debugging).
func (e *Engine) Spigs() *spig.Set { return e.spigs }

// Stats returns the accumulated session measurements.
func (e *Engine) Stats() *SessionStats { return &e.stats }

// SimilarityMode reports whether the session has degraded to substructure
// similarity search.
func (e *Engine) SimilarityMode() bool { return e.simFlag }

// AwaitingChoice reports whether the last action left Rq empty in
// containment mode, so the GUI must ask the user to Modify or continue as a
// similarity query.
func (e *Engine) AwaitingChoice() bool { return e.pending }

// AddNode drops a labeled node on the canvas and returns its stable id.
func (e *Engine) AddNode(label string) int { return e.q.AddNode(label) }

// AddEdge handles the New action of Algorithm 1: draw an edge, construct
// its SPIG (Algorithm 2), and refresh the candidate sets.
func (e *Engine) AddEdge(u, v int) (StepOutcome, error) {
	return e.AddLabeledEdgeCtx(context.Background(), u, v, "")
}

// AddEdgeCtx is AddEdge honoring the context: cancellation is checked
// before the action and between SPIG levels during candidate maintenance.
func (e *Engine) AddEdgeCtx(ctx context.Context, u, v int) (StepOutcome, error) {
	return e.AddLabeledEdgeCtx(ctx, u, v, "")
}

// AddLabeledEdge is AddEdge for an edge carrying an edge label (e.g. a bond
// type). The paper presents its method for node-labeled graphs; edge labels
// flow through canonical codes, indexes, and SPIGs unchanged.
func (e *Engine) AddLabeledEdge(u, v int, label string) (StepOutcome, error) {
	return e.AddLabeledEdgeCtx(context.Background(), u, v, label)
}

// AddLabeledEdgeCtx is the context-aware AddLabeledEdge. On cancellation
// the edge stays drawn but the candidate sets may be stale; the next
// evaluated action recomputes them.
func (e *Engine) AddLabeledEdgeCtx(ctx context.Context, u, v int, label string) (StepOutcome, error) {
	if err := ctx.Err(); err != nil {
		return StepOutcome{}, fmt.Errorf("core: add edge: %w", err)
	}
	e.repin()
	step, err := e.q.AddLabeledEdge(u, v, label)
	if err != nil {
		return StepOutcome{}, err
	}
	t0 := time.Now()
	sctx, ssp := trace.StartChild(ctx, trace.KindSpigBuild)
	_, cerr := e.spigs.ConstructCtx(sctx, e.q, step)
	ssp.End()
	if cerr != nil {
		return StepOutcome{}, cerr
	}
	spigTime := time.Since(t0)
	e.stats.SpigConstruction = append(e.stats.SpigConstruction, spigTime)

	t1 := time.Now()
	ectx, esp := trace.StartChild(ctx, trace.KindStepEval)
	out, err := e.refresh(ectx)
	esp.End()
	if err != nil {
		return StepOutcome{}, fmt.Errorf("core: add edge: %w", err)
	}
	evalTime := time.Since(t1)
	e.stats.StepEvaluation = append(e.stats.StepEvaluation, evalTime)

	out.Step = step
	out.SpigTime = spigTime
	out.EvalTime = evalTime
	return out, nil
}

// ChooseSimilarity handles the SimQuery action: the user elects to continue
// formulating with approximate matching.
func (e *Engine) ChooseSimilarity() StepOutcome {
	out, _ := e.ChooseSimilarityCtx(context.Background())
	return out
}

// ChooseSimilarityCtx is the context-aware ChooseSimilarity.
func (e *Engine) ChooseSimilarityCtx(ctx context.Context) (StepOutcome, error) {
	e.repin()
	e.simFlag = true
	e.pending = false
	out, err := e.refresh(ctx)
	if err != nil {
		return StepOutcome{}, fmt.Errorf("core: choose similarity: %w", err)
	}
	return out, nil
}

// refresh recomputes candidate state after the query or mode changed.
// Cancellation is checked between SPIG levels; with a background context it
// never errors. A cancelled refresh leaves the candidate sets marked stale,
// and the next evaluated action (or Run itself) recomputes them.
func (e *Engine) refresh(ctx context.Context) (StepOutcome, error) {
	out, err := e.refreshInner(ctx)
	e.stale = err != nil
	return out, err
}

func (e *Engine) refreshInner(ctx context.Context) (StepOutcome, error) {
	if e.q.Size() == 0 {
		e.rq = nil
		e.rfree, e.rver = nil, nil
		return StepOutcome{Status: StatusEmpty}, nil
	}
	if !e.simFlag {
		target := e.spigs.Target(e.q)
		rq, err := e.exactSubCandidates(ctx, target)
		if err != nil {
			return StepOutcome{}, err
		}
		e.rq = rq
		if len(e.rq) > 0 {
			e.pending = false
			status := StatusInfrequent
			if target.Kind == index.KindFrequent {
				status = StatusFrequent
			}
			return StepOutcome{Status: status, ExactCount: len(e.rq)}, nil
		}
		// Rq became empty: precompute similarity candidates (Algorithm 1
		// lines 7-10) and ask the user to choose.
		e.pending = true
		e.rfree, e.rver, err = e.similarSubCandidates(ctx)
		if err != nil {
			return StepOutcome{}, err
		}
		return StepOutcome{
			Status:      StatusSimilar,
			NeedsChoice: true,
			FreeCount:   countLevelSets(e.rfree),
			VerCount:    countLevelSets(e.rver),
		}, nil
	}
	var err error
	e.rfree, e.rver, err = e.similarSubCandidates(ctx)
	if err != nil {
		return StepOutcome{}, err
	}
	return StepOutcome{
		Status:    StatusSimilar,
		FreeCount: countLevelSets(e.rfree),
		VerCount:  countLevelSets(e.rver),
	}, nil
}

// Rq returns the current exact candidate set (containment mode).
func (e *Engine) Rq() []int { return intset.Clone(e.rq) }

// CandidateCounts reports |Rfree| and |Rver| (the union over levels) and
// their union's size — the "candidate size" of the paper's Figures 9 and 10.
func (e *Engine) CandidateCounts() (free, ver, total int) {
	fu := flattenLevelSets(e.rfree)
	vu := flattenLevelSets(e.rver)
	return len(fu), len(vu), len(intset.Union(fu, vu))
}

// Run handles the Run action of Algorithm 1: finish evaluation and return
// the (possibly approximate) ranked results. The elapsed work is the SRT.
func (e *Engine) Run() ([]Result, error) {
	return e.RunCtx(context.Background())
}

// RunCtx is the context-aware Run: the verification loops poll cancellation
// between candidates, so a cancelled or deadline-exceeded context returns
// promptly with the partial results ranked so far and an error wrapping
// ctx.Err(). When containment search yields no verified exact result, the
// session transparently degrades to similarity search (Algorithm 1 lines
// 19-21) and — unlike earlier revisions — records that transition, so
// SimilarityMode/AwaitingChoice stay consistent after Run returns. With a
// run budget configured (SetRunBudget) the degradation ladder applies; use
// RunDetailedCtx to observe the stage and the Truncated flag.
func (e *Engine) RunCtx(ctx context.Context) ([]Result, error) {
	out, err := e.RunDetailedCtx(ctx)
	return out.Results, err
}

// evaluate is the evaluation body shared by the ladder: exact containment
// (with verification-free answering for frequent fragments), falling back to
// similarity search when no exact result exists. It runs under the ladder's
// budget context; RunDetailedCtx interprets its partial results and error.
func (e *Engine) evaluate(ctx context.Context) ([]Result, error) {
	if e.stale {
		// A cancelled formulation refresh left rq/rfree/rver for an older
		// query revision. Recompute before answering; on a second failure
		// drop the sets entirely so the ladder cannot serve bounds that are
		// unsound for the current query (last-known-good remains available,
		// and is flagged as such).
		if _, err := e.refresh(ctx); err != nil {
			e.rq, e.rfree, e.rver = nil, nil, nil
			return nil, fmt.Errorf("core: run: recompute stale candidates: %w", err)
		}
	}
	qg, _ := e.q.Graph()
	if !e.simFlag {
		var results []Result
		if target := e.spigs.Target(e.q); target != nil && target.Kind == index.KindFrequent {
			// Verification-free answering (the FG-Index property the
			// indexes inherit [2]): a frequent query fragment's FSG list
			// *is* the exact answer set — no subgraph isomorphism needed.
			results = make([]Result, 0, len(e.rq))
			for _, id := range e.rq {
				results = append(results, Result{GraphID: id, Distance: 0})
			}
		} else {
			code := ""
			if target := e.spigs.Target(e.q); target != nil {
				code = target.Code
			}
			matched, err := e.exactContainment(ctx, code, qg, e.rq)
			results = make([]Result, 0, len(matched))
			for _, id := range matched {
				results = append(results, Result{GraphID: id, Distance: 0})
			}
			if err != nil {
				return results, fmt.Errorf("core: run: %w", err)
			}
		}
		if len(results) > 0 {
			return results, nil
		}
		// No exact result after verification: fall back to similarity
		// search (Algorithm 1 lines 19-21). The fallback *is* the
		// similarity choice, so mark the mode switch and clear any pending
		// choice — a post-Run AwaitingChoice report must not be stale.
		e.simFlag = true
		e.pending = false
		dctx, dsp := trace.StartChild(ctx, trace.KindDegrade)
		var err error
		e.rfree, e.rver, err = e.similarSubCandidates(dctx)
		dsp.End()
		if err != nil {
			// The mode flipped but the similarity candidates were never
			// fully computed; the next Run must not trust them.
			e.stale = true
			return nil, fmt.Errorf("core: run: %w", err)
		}
	}
	gctx, gsp := trace.StartChild(ctx, trace.KindSimilarEval)
	results, err := e.similarResultsGen(gctx, qg)
	gsp.End()
	if err != nil {
		return results, fmt.Errorf("core: run: %w", err)
	}
	return results, nil
}

func countLevelSets(ls levelSets) int { return len(flattenLevelSets(ls)) }

func flattenLevelSets(ls levelSets) []int {
	var all []int
	for _, ids := range ls {
		all = append(all, ids...)
	}
	return intset.Normalize(all)
}
