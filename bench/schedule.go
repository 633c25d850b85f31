package main

import (
	"crypto/sha256"
	"encoding/binary"
	"encoding/hex"
	"fmt"
	"math"
	"math/rand"
	"time"

	"prague/internal/dataset"
	"prague/internal/graph"
	"prague/internal/workload"
)

const (
	zipfS         = 1.2
	minRounds     = 7
	mutationBlock = 64 // insert+delete pairs that end every round: four passes over the pool
	mutationPool  = 16 // distinct graphs the pairs insert
	classMargin   = 0.10
)

// variant is one distinct final query: a pool query formulated in its default
// order, with or without the deletion of the suggested edge before Run.
type variant struct {
	q      *workload.Query
	modify bool

	// Filled by warm-up.
	similarity bool   // the Run evaluates in similarity mode
	answer     uint64 // digest of the oracle-checked answer
	results    int
	warmSRT    time.Duration // of the oracle-checked Run
	warmModify time.Duration // of the modification before it
}

func (v *variant) String() string {
	if v.modify {
		return v.q.Name + "+modify"
	}
	return v.q.Name
}

// op is one session of a round.
type op struct {
	variant int
	mutate  int // index of the graph inserted and deleted before the session, -1 for none
}

// schedule is the fixed work of one round, replayed identically every round:
// the sessions in order, then mutationBlock insert+delete pairs.
type schedule struct {
	variants []*variant
	ops      []op
	block    []int          // graph indices of the closing mutation block
	graphs   []*graph.Graph // the graphs mutations insert (cloned per insert)
	edges    int            // formulation steps per round
	modifies int            // modifications per round
	// readEvery is the number of sessions between two readings of the host
	// speed (design rule 8): about 100 ms of work on every workload.
	readEvery int
	digest    string
}

// newSchedule derives the round from the seed. Shares are exact, not sampled:
// query k of the pool gets the zipf(1.2) share of rank k (largest-remainder
// rounding), half of a query's sessions modify, and the seed only decides the
// order. Quantile ranks therefore fall on the same variant for every seed.
func newSchedule(sp *spec, pool []workload.Query, seed int64) (*schedule, error) {
	s := &schedule{readEvery: sp.readEvery}
	for i := range pool {
		s.variants = append(s.variants, &variant{q: &pool[i]}, &variant{q: &pool[i], modify: true})
	}
	weights := make([]float64, len(pool))
	for k := range pool {
		weights[k] = 1 / math.Pow(float64(k+1), zipfS)
	}
	r := rand.New(rand.NewSource(seed))
	// stratum draws n sessions with exact zipf shares in a seeded order.
	stratum := func(n int) []op {
		var ops []op
		for k, n := range apportion(n, weights) {
			plain := (n + k%2) / 2 // odd counts alternate which half gets the extra session
			for i := 0; i < n; i++ {
				v := 2 * k
				if i >= plain {
					v++
				}
				ops = append(ops, op{variant: v, mutate: -1})
			}
		}
		r.Shuffle(len(ops), func(i, j int) { ops[i], ops[j] = ops[j], ops[i] })
		return ops
	}
	// The sessions that follow a mutation are a stratum of their own, so
	// that the slow post-mutation mode holds the same queries for every seed.
	var after []op
	if sp.mutateEvery > 0 {
		after = stratum(sp.sessionsPerRound / sp.mutateEvery)
	}
	rest := stratum(sp.sessionsPerRound - len(after))
	for i := 0; len(s.ops) < sp.sessionsPerRound; i++ {
		if sp.mutateEvery > 0 && i%sp.mutateEvery == sp.mutateEvery-1 {
			s.ops, after = append(s.ops, after[0]), after[1:]
		} else {
			s.ops, rest = append(s.ops, rest[0]), rest[1:]
		}
	}

	var err error
	opt := sp.data
	opt.NumGraphs, opt.Seed = mutationPool, sp.data.Seed+1
	if s.graphs, err = dataset.Molecules(opt); err != nil {
		return nil, err
	}
	next := r.Perm(mutationPool)
	draw := func(i int) int { return next[i%mutationPool] }
	n := 0
	if sp.mutateEvery > 0 {
		for i := sp.mutateEvery - 1; i < len(s.ops); i += sp.mutateEvery {
			s.ops[i].mutate = draw(n)
			n++
		}
	}
	for i := 0; i < mutationBlock; i++ {
		s.block = append(s.block, draw(n+i))
	}

	for _, o := range s.ops {
		v := s.variants[o.variant]
		s.edges += len(v.q.Edges)
		if v.modify {
			s.modifies++
		}
	}
	s.digest, err = s.hash(pool)
	return s, err
}

// hash digests everything a round does: the queries, the graphs mutations
// insert, and the ops in order.
func (s *schedule) hash(pool []workload.Query) (string, error) {
	h := sha256.New()
	for _, q := range pool {
		fmt.Fprintf(h, "%s %q %v\n", q.Name, q.NodeLabels, q.Edges)
	}
	if err := graph.WriteAll(h, s.graphs); err != nil {
		return "", err
	}
	for _, o := range s.ops {
		binary.Write(h, binary.LittleEndian, [2]int64{int64(o.variant), int64(o.mutate)})
	}
	for _, g := range s.block {
		binary.Write(h, binary.LittleEndian, int64(g))
	}
	return hex.EncodeToString(h.Sum(nil)[:8]), nil
}

// containmentShare is the share of sessions whose Run evaluates in
// containment mode, as warm-up observed it.
func (s *schedule) containmentShare() float64 {
	containment := 0
	for _, o := range s.ops {
		if !s.variants[o.variant].similarity {
			containment++
		}
	}
	return float64(containment) / float64(len(s.ops))
}

// apportion splits n into integer parts proportional to weights by the
// largest-remainder method.
func apportion(n int, weights []float64) []int {
	var sum float64
	for _, w := range weights {
		sum += w
	}
	parts := make([]int, len(weights))
	rem := make([]float64, len(weights))
	left := n
	for i, w := range weights {
		exact := float64(n) * w / sum
		parts[i] = int(exact)
		rem[i] = exact - float64(parts[i])
		left -= parts[i]
	}
	for ; left > 0; left-- {
		best := 0
		for i := range rem {
			if rem[i] > rem[best] {
				best = i
			}
		}
		parts[best]++
		rem[best] = -1
	}
	return parts
}

// checkModes is design rule 6. SRT is bimodal by query class (a containment
// Run answers from the index in microseconds, a similarity Run verifies for
// milliseconds), so a quantile whose rank sits near the class boundary flips
// between the modes on noise. With c the share of containment Runs, sorted
// SRTs are containment below rank c and similarity above: both the p50 and
// the p95 rank must lie at least classMargin inside one class.
func (s *schedule) checkModes() error {
	c := s.containmentShare()
	if c == 0 || c == 1 {
		return nil // one class, no boundary
	}
	for _, p := range []float64{0.50, 0.95} {
		if math.Abs(p-c) < classMargin {
			return fmt.Errorf("schedule: containment share %.3f puts the p%.0f SRT rank within %.2f of the class boundary", c, 100*p, classMargin)
		}
	}
	return nil
}
