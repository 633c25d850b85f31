// Package naivescan is the index-free reference point: it answers
// containment and similarity queries by scanning the whole database with
// VF2/MCCS verification. It exists to calibrate the other systems — any
// filtering scheme must beat this to justify its index — and serves as the
// ground-truth oracle in tests and examples (its answers are Definition 3
// by construction).
package naivescan

import (
	"fmt"
	"sort"
	"sync"
	"time"

	"prague/internal/graph"
	"prague/internal/simverify"
	"prague/internal/store"
)

// Engine scans a database without any index.
type Engine struct {
	db      []*graph.Graph
	st      store.Store // live-store mode: enumerate per query (nil for New)
	workers int
}

// Result is one similarity answer.
type Result struct {
	GraphID  int
	Distance int
}

// New creates a scan engine. workers ≤ 1 scans sequentially.
func New(db []*graph.Graph, workers int) (*Engine, error) {
	if len(db) == 0 {
		return nil, fmt.Errorf("naivescan: empty database")
	}
	if workers < 1 {
		workers = 1
	}
	return &Engine{db: db, workers: workers}, nil
}

// NewFromStore creates a scan engine over every graph owned by the store's
// shards, in shard order. The engine keeps the store and re-enumerates its
// live graphs on every query, so it stays a ground-truth oracle across
// online mutation: after an InsertGraph or DeleteGraph the next scan sees
// exactly the store's current database. Enumerating through the shards (not
// LiveIDs) also means a wrong shard assignment poisons the oracle and fails
// loudly. The scan itself stays layout-independent — results are sorted by
// distance then id regardless of how the store partitions the database —
// which is exactly what makes it a fair oracle for sharded engines.
func NewFromStore(st store.Store, workers int) (*Engine, error) {
	if st == nil {
		return nil, fmt.Errorf("naivescan: nil store")
	}
	if workers < 1 {
		workers = 1
	}
	return &Engine{st: st, workers: workers}, nil
}

// graphs returns the database to scan: the fixed slice for New engines, or
// the store's current live graphs for NewFromStore engines.
func (e *Engine) graphs() []*graph.Graph {
	if e.st == nil {
		return e.db
	}
	sn := e.st.Pin()
	live := sn.LiveIDs()
	db := make([]*graph.Graph, len(live))
	for i, id := range live {
		db[i] = sn.Graph(id)
	}
	return db
}

// Containment returns the ids of data graphs containing q, by scanning.
func (e *Engine) Containment(q *graph.Graph) ([]int, time.Duration) {
	t0 := time.Now()
	hits := e.scan(func(g *graph.Graph) (int, bool) {
		if graph.SubgraphIsomorphic(q, g) {
			return 0, true
		}
		return 0, false
	})
	ids := make([]int, 0, len(hits))
	for _, h := range hits {
		ids = append(ids, h.GraphID)
	}
	return ids, time.Since(t0)
}

// Similarity returns every data graph within subgraph distance sigma of
// containing q, ranked by distance (Definition 3), by scanning.
func (e *Engine) Similarity(q *graph.Graph, sigma int) ([]Result, time.Duration) {
	t0 := time.Now()
	// The verifier is read-only after construction, so workers share it.
	verifier := simverify.NewVerifier(q)
	results := e.scan(func(g *graph.Graph) (int, bool) {
		if d := verifier.Distance(g); d <= sigma {
			return d, true
		}
		return 0, false
	})
	return results, time.Since(t0)
}

// scan applies check to every data graph, optionally in parallel, and
// returns the accepted (id, distance) pairs sorted by distance then id.
func (e *Engine) scan(check func(g *graph.Graph) (int, bool)) []Result {
	db := e.graphs()
	var out []Result
	if e.workers <= 1 {
		for _, g := range db {
			if d, ok := check(g); ok {
				out = append(out, Result{GraphID: g.ID, Distance: d})
			}
		}
	} else {
		var mu sync.Mutex
		var wg sync.WaitGroup
		next := make(chan *graph.Graph)
		for w := 0; w < e.workers; w++ {
			wg.Add(1)
			go func() {
				defer wg.Done()
				for g := range next {
					if d, ok := check(g); ok {
						mu.Lock()
						out = append(out, Result{GraphID: g.ID, Distance: d})
						mu.Unlock()
					}
				}
			}()
		}
		for _, g := range db {
			next <- g
		}
		close(next)
		wg.Wait()
	}
	sort.Slice(out, func(a, b int) bool {
		if out[a].Distance != out[b].Distance {
			return out[a].Distance < out[b].Distance
		}
		return out[a].GraphID < out[b].GraphID
	})
	return out
}
