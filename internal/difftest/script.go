package difftest

import (
	"math/rand"
	"testing"

	"prague/internal/graph"
	"prague/internal/index"
	"prague/internal/mining"
	"prague/internal/query"
)

// The label vocabulary every harness draws from: carbon-heavy node labels
// and mostly unlabeled bonds, so random queries often hit mined fragments.
var (
	NodeLabels = []string{"C", "C", "C", "N", "O", "S"}
	EdgeLabels = []string{"", "", "", "1", "2"}
)

// RandomGraph builds one connected random molecule-like graph: a random
// spanning tree plus a few extra edges, labels drawn from the shared
// vocabulary. Databases and online inserts share it, so inserted graphs look
// like the mined population.
func RandomGraph(r *rand.Rand, id int) *graph.Graph {
	nodes := 4 + r.Intn(6)
	g := graph.New(id)
	for v := 0; v < nodes; v++ {
		g.AddNode(NodeLabels[r.Intn(len(NodeLabels))])
	}
	for v := 1; v < nodes; v++ {
		g.MustAddEdge(v, r.Intn(v))
	}
	for k := 0; k < r.Intn(3); k++ {
		u, v := r.Intn(nodes), r.Intn(nodes)
		if u != v && !g.HasEdge(u, v) {
			g.MustAddEdge(u, v)
		}
	}
	return g
}

// RandomDatabase builds n RandomGraphs from seed (ids 0..n-1) and mines
// their action-aware indexes.
func RandomDatabase(tb testing.TB, seed int64, n int) ([]*graph.Graph, *index.Set) {
	tb.Helper()
	r := rand.New(rand.NewSource(seed))
	db := make([]*graph.Graph, 0, n)
	for i := 0; i < n; i++ {
		db = append(db, RandomGraph(r, i))
	}
	res, err := mining.Mine(db, mining.Options{MinSupportRatio: 0.3, MaxSize: 6})
	if err != nil {
		tb.Fatal(err)
	}
	idx, err := index.Build(res, 0.3, 3)
	if err != nil {
		tb.Fatal(err)
	}
	return db, idx
}

// Mutation draws one online mutation against the live ids: the insert of a
// fresh RandomGraph (ins non-nil) on a coin flip or whenever at most floor
// graphs are live, otherwise the delete of a random live id.
func Mutation(r *rand.Rand, live []int, floor int) (ins *graph.Graph, del int) {
	if r.Intn(2) == 0 || len(live) <= floor {
		return RandomGraph(r, 0), -1
	}
	return nil, live[r.Intn(len(live))]
}

// Kind is the kind of one drawn canvas action.
type Kind int

const (
	Skip   Kind = iota // the drawn delete had nothing deletable
	Add                // draw an edge anchored in the fragment
	Delete             // delete a deletable step
	Burst              // fire concurrent Runs at the session
	Mutate             // mutate the database under the session
	Check              // press Run and check the answer
)

// Mix is an op mix as a weight table. Next draws r.Intn of the total weight
// and walks the weights in field order, so {Add: 6, Delete: 2, Check: 2}
// reads "op < 6 adds, op < 8 deletes, the rest checks".
type Mix struct{ Add, Delete, Burst, Mutate, Check int }

// Op is one drawn canvas action.
type Op struct {
	Kind Kind
	// Add: the edge (U, V) with bond label Bond. When Fresh is set, V is a
	// node to draw first with that label; it gets the next node id.
	U, V  int
	Fresh string
	Bond  string
	Step  int // Delete: a step whose removal keeps the fragment connected
}

// Script draws one session's canvas actions from a seeded source, against
// the query the session has drawn so far (the mirror). It keeps no copy of
// the query, only the number of canvas nodes, whose ids are 0..n-1.
type Script struct {
	r     *rand.Rand
	mix   Mix
	nodes int
}

// NewScript returns a script drawing from r with the given op mix.
func NewScript(r *rand.Rand, mix Mix) *Script { return &Script{r: r, mix: mix} }

// Node draws the label of a fresh canvas node, which gets the next node id.
func (s *Script) Node() string {
	s.nodes++
	return NodeLabels[s.r.Intn(len(NodeLabels))]
}

// Next draws the next action against the mirror q. An empty fragment
// always draws an add. A delete needs at least two edges (the canvas never
// empties) and a deletable step; without them the action is a Skip.
func (s *Script) Next(q *query.Query) Op {
	m := s.mix
	n := s.r.Intn(m.Add + m.Delete + m.Burst + m.Mutate + m.Check)
	switch {
	case n < m.Add || q.Size() == 0:
		return s.add(q)
	case n < m.Add+m.Delete:
		return s.delete(q)
	case n < m.Add+m.Delete+m.Burst:
		return Op{Kind: Burst}
	case n < m.Add+m.Delete+m.Burst+m.Mutate:
		return Op{Kind: Mutate}
	}
	return Op{Kind: Check}
}

// add anchors one endpoint in the fragment (any node while it is empty) so
// the edge usually keeps it connected. The other endpoint is usually a fresh
// node; a third of the time it is an existing one, which closes a ring — or
// repeats an edge or draws a loop, which every target must reject alike.
func (s *Script) add(q *query.Query) Op {
	op := Op{Kind: Add}
	if q.Size() == 0 {
		op.U = s.r.Intn(s.nodes)
	} else {
		steps := q.Steps()
		e, _ := q.Edge(steps[s.r.Intn(len(steps))])
		op.U = e.A
		if s.r.Intn(2) != 0 {
			op.U = e.B
		}
	}
	if s.r.Intn(3) == 0 && s.nodes > 2 {
		op.V = s.r.Intn(s.nodes)
	} else {
		op.V = s.nodes
		op.Fresh = s.Node()
	}
	op.Bond = EdgeLabels[s.r.Intn(len(EdgeLabels))]
	return op
}

func (s *Script) delete(q *query.Query) Op {
	if q.Size() < 2 {
		return Op{Kind: Skip}
	}
	var deletable []int
	for _, st := range q.Steps() {
		if q.CanDelete(st) {
			deletable = append(deletable, st)
		}
	}
	if len(deletable) == 0 {
		return Op{Kind: Skip}
	}
	return Op{Kind: Delete, Step: deletable[s.r.Intn(len(deletable))]}
}
