// Package prefilter holds the verify prefilter's per-graph table: for every
// live data graph its Grafil-light feature counts (node labels and labeled
// edge triples). A count check is a sound superset filter for subgraph
// containment, so the engine can screen candidates with it before VF2 runs.
//
// A store owns one Table per published snapshot. The first reader builds it
// (Build); each later mutation derives its successor's table from its
// parent's in one row (Insert, Delete), sharing every untouched row. The
// package imports only graph, so stores on either side of the wire can keep
// the table without the feature-mining dependencies of internal/grafil.
package prefilter

import (
	"fmt"
	"maps"
	"math"
	"sort"
	"sync"
	"sync/atomic"

	"prague/internal/graph"
)

// Table applies Grafil's feature-count principle (count_g(f) ≥ count_q(f)
// for subgraph containment, the σ=0 case of the paper's bound) with the
// cheapest one-pass features: node labels and labeled edge triples. It is
// immutable: Insert and Delete return successors that share every untouched
// row, so a mutation writes one row and copies only the list of 64-row
// chunks and the chunk holding the row.
// Per-candidate checks are allocation-free and safe for concurrent use.
//
// The vocabulary only grows: a column whose last graph was deleted stays,
// with a live-document count of zero, and Profile treats it exactly like a
// feature no graph ever had. A maintained table therefore answers every
// query like a from-scratch Build over the same live graphs.
type Table struct {
	voc  *vocab
	rows []*chunk // by graph id: rows[id>>chunkBits][id&chunkMask]
	docs []int32  // per column: live graphs with a nonzero count
}

const (
	chunkBits = 6
	chunkMask = 1<<chunkBits - 1
)

// chunk holds the rows of 64 consecutive ids, by value so that a candidate
// check reaches its row in one step. A mutation copies the chunk list and
// the one chunk it writes.
type chunk [1 << chunkBits]Row

// setRow makes t's rows a copy of rows with id's entry set to r.
func (t *Table) setRow(rows []*chunk, id int, r Row) {
	t.rows = make([]*chunk, max(len(rows), id>>chunkBits+1))
	copy(t.rows, rows)
	c := new(chunk)
	if old := t.rows[id>>chunkBits]; old != nil {
		*c = *old
	}
	c[id&chunkMask] = r
	t.rows[id>>chunkBits] = c
}

// Row is one graph's entry; the zero Row is a graph that is not live.
// counts has one slot per column that existed when the row was made; later
// columns count zero for it.
type Row struct {
	counts []uint16
}

// triple is a labeled edge with its endpoint labels ordered (a <= b).
type triple struct{ a, e, b string }

func tripleAt(g *graph.Graph, i int) triple {
	ed := g.Edges()[i]
	la, lb := g.Label(ed.U), g.Label(ed.V)
	if lb < la {
		la, lb = lb, la
	}
	return triple{la, g.EdgeLabelAt(i), lb}
}

// vocab numbers the feature columns. A vocab reachable from a published
// table is never written: growing it copies (grown).
type vocab struct {
	labels  map[string]int
	triples map[triple]int
	ncols   int
}

// add assigns columns to g's unseen features, in place.
func (v *vocab) add(g *graph.Graph) {
	for node := range g.NumNodes() {
		l := g.Label(node)
		if _, ok := v.labels[l]; !ok {
			v.labels[l] = v.ncols
			v.ncols++
		}
	}
	for i := range g.Edges() {
		k := tripleAt(g, i)
		if _, ok := v.triples[k]; !ok {
			v.triples[k] = v.ncols
			v.ncols++
		}
	}
}

// grown returns v if it already has a column for each of g's features, and
// otherwise a copy extended with the missing ones.
func (v *vocab) grown(g *graph.Graph) *vocab {
	if v.covers(g) {
		return v
	}
	nv := &vocab{labels: maps.Clone(v.labels), triples: maps.Clone(v.triples), ncols: v.ncols}
	nv.add(g)
	return nv
}

func (v *vocab) covers(g *graph.Graph) bool {
	for node := range g.NumNodes() {
		l := g.Label(node)
		if _, ok := v.labels[l]; !ok {
			return false
		}
	}
	for i := range g.Edges() {
		if _, ok := v.triples[tripleAt(g, i)]; !ok {
			return false
		}
	}
	return true
}

// fill counts g's features into counts, which has a slot per column of v.
func (v *vocab) fill(counts []uint16, g *graph.Graph) {
	for node := range g.NumNodes() {
		l := g.Label(node)
		addCapped(counts, v.labels[l])
	}
	for i := range g.Edges() {
		addCapped(counts, v.triples[tripleAt(g, i)])
	}
}

func addCapped(counts []uint16, col int) {
	if counts[col] < math.MaxUint16 {
		counts[col]++
	}
}

// Build scans the graphs with the given ids (nil graphs are skipped,
// matching tombstoned store slots) and builds the table.
func Build(ids []int, lookup func(int) *graph.Graph) *Table {
	voc := &vocab{labels: map[string]int{}, triples: map[triple]int{}}
	gs := make([]*graph.Graph, 0, len(ids))
	live := make([]int, 0, len(ids))
	maxID := -1
	for _, id := range ids {
		if g := lookup(id); g != nil {
			voc.add(g)
			gs, live = append(gs, g), append(live, id)
			maxID = max(maxID, id)
		}
	}
	t := &Table{voc: voc, rows: make([]*chunk, maxID>>chunkBits+1), docs: make([]int32, voc.ncols)}
	for c := range t.rows {
		t.rows[c] = new(chunk)
	}
	// One slab holds every row's counts.
	nc := voc.ncols
	slab := make([]uint16, len(gs)*nc)
	for k, g := range gs {
		id := live[k]
		r := &t.rows[id>>chunkBits][id&chunkMask]
		r.counts = slab[k*nc : (k+1)*nc : (k+1)*nc]
		voc.fill(r.counts, g)
		t.countDocs(r, 1)
	}
	return t
}

func (t *Table) countDocs(r *Row, delta int32) {
	for c, n := range r.counts {
		if n > 0 {
			t.docs[c] += delta
		}
	}
}

// Insert returns the table with graph g live under id. The receiver is
// unchanged; the successor shares its rows and, unless g brings a new label
// or triple, its vocabulary.
func (t *Table) Insert(id int, g *graph.Graph) *Table {
	if t.Row(id) != nil {
		t = t.Delete(id)
	}
	voc := t.voc.grown(g)
	r := Row{counts: make([]uint16, voc.ncols)}
	voc.fill(r.counts, g)
	nt := &Table{voc: voc, docs: make([]int32, voc.ncols)}
	copy(nt.docs, t.docs)
	nt.countDocs(&r, 1)
	nt.setRow(t.rows, id, r)
	return nt
}

// Delete returns the table without graph id. The receiver is unchanged; an
// id that is not live returns the receiver itself.
func (t *Table) Delete(id int) *Table {
	r := t.Row(id)
	if r == nil {
		return t
	}
	nt := &Table{voc: t.voc, docs: append([]int32(nil), t.docs...)}
	nt.countDocs(r, -1)
	nt.setRow(t.rows, id, Row{})
	return nt
}

// Need is one query feature requirement: column Col needs count >= Min.
type Need struct {
	Col int
	Min uint16
}

// Profile is a query fragment's count requirements: computed once per
// fragment and action with Table.Profile, checked per candidate with Admits.
type Profile struct {
	Needs []Need
	// Unknown marks a fragment using a label or edge triple no live graph
	// has: no candidate can contain it, so every candidate fails.
	Unknown bool
}

// Profile computes frag's feature requirements against the table. A feature
// without a column, or whose column has no live graph, makes it Unknown.
func (t *Table) Profile(frag *graph.Graph) Profile {
	p := Profile{Needs: make([]Need, 0, frag.NumNodes()+frag.NumEdges())}
	for node := range frag.NumNodes() {
		l := frag.Label(node)
		c, ok := t.voc.labels[l]
		if !ok || t.docs[c] == 0 {
			return Profile{Unknown: true}
		}
		p.bump(c)
	}
	for i := range frag.Edges() {
		c, ok := t.voc.triples[tripleAt(frag, i)]
		if !ok || t.docs[c] == 0 {
			return Profile{Unknown: true}
		}
		p.bump(c)
	}
	return p
}

func (p *Profile) bump(col int) {
	for i := range p.Needs {
		if p.Needs[i].Col == col {
			if p.Needs[i].Min < math.MaxUint16 {
				p.Needs[i].Min++
			}
			return
		}
	}
	p.Needs = append(p.Needs, Need{Col: col, Min: 1})
}

// RepeatedFeatures reports whether the fragment requires any feature more
// than once — the regime where count filtering prunes strictly more than
// the presence an index probe already guarantees.
func (p *Profile) RepeatedFeatures() bool {
	for _, nd := range p.Needs {
		if nd.Min > 1 {
			return true
		}
	}
	return false
}

// Admits reports whether the graph of row r (nil: not live) satisfies every
// count requirement of p.
func (p *Profile) Admits(r *Row) bool {
	if p.Unknown || r == nil {
		return false
	}
	for _, nd := range p.Needs {
		if r.count(nd.Col) < nd.Min {
			return false
		}
	}
	return true
}

// Row returns graph id's row, or nil when id is not live. Fetch it once per
// candidate and check every fragment's Profile against it.
func (t *Table) Row(id int) *Row {
	if id < 0 || id>>chunkBits >= len(t.rows) || t.rows[id>>chunkBits] == nil {
		return nil
	}
	if r := &t.rows[id>>chunkBits][id&chunkMask]; r.counts != nil {
		return r
	}
	return nil
}

// count is the row's count in column c; -1 stands for a column the row's
// table does not have.
func (r *Row) count(c int) uint16 {
	if c < 0 || c >= len(r.counts) {
		return 0
	}
	return r.counts[c]
}

// Diff reports the first way t disagrees with want as a table over the same
// live graphs, or nil. Columns are compared by feature, not by number:
// numbering depends on the order graphs arrived in, and a maintained table
// keeps columns whose last graph is gone.
func (t *Table) Diff(want *Table) error {
	got, exp := t.voc.names(), want.voc.names()
	var names []string
	for name := range got {
		names = append(names, name)
	}
	for name := range exp {
		if _, ok := got[name]; !ok {
			names = append(names, name)
		}
	}
	sort.Strings(names)
	col := func(cols map[string]int, name string) int {
		if c, ok := cols[name]; ok {
			return c
		}
		return -1
	}
	docs := func(tab *Table, c int) int32 {
		if c < 0 {
			return 0
		}
		return tab.docs[c]
	}
	for _, name := range names {
		if g, w := docs(t, col(got, name)), docs(want, col(exp, name)); g != w {
			return fmt.Errorf("prefilter: column %s: %d live graphs, want %d", name, g, w)
		}
	}
	for id := 0; id < max(len(t.rows), len(want.rows))<<chunkBits; id++ {
		gr, wr := t.Row(id), want.Row(id)
		if (gr == nil) != (wr == nil) {
			return fmt.Errorf("prefilter: graph %d: live %v, want %v", id, gr != nil, wr != nil)
		}
		if gr == nil {
			continue
		}
		for _, name := range names {
			if g, w := gr.count(col(got, name)), wr.count(col(exp, name)); g != w {
				return fmt.Errorf("prefilter: graph %d: column %s counts %d, want %d", id, name, g, w)
			}
		}
	}
	return nil
}

// names maps a printable feature name to its column.
func (v *vocab) names() map[string]int {
	out := make(map[string]int, v.ncols)
	for l, c := range v.labels {
		out[fmt.Sprintf("label %q", l)] = c
	}
	for k, c := range v.triples {
		out[fmt.Sprintf("triple %q-%q-%q", k.a, k.e, k.b)] = c
	}
	return out
}

// Slot holds one snapshot's table: installed by the mutation that derived
// it (Set, before the snapshot is published), or built by the first reader
// (Get). The zero value is an empty slot.
type Slot struct {
	once sync.Once
	tab  atomic.Pointer[Table]
}

// Get returns the slot's table, building it over ids on the first call if no
// table was set. Concurrent first callers wait for one build; built reports
// whether this call ran it.
func (s *Slot) Get(ids []int, lookup func(int) *graph.Graph) (tab *Table, built bool) {
	if t := s.tab.Load(); t != nil {
		return t, false
	}
	s.once.Do(func() {
		if s.tab.Load() == nil {
			s.tab.Store(Build(ids, lookup))
			built = true
		}
	})
	return s.tab.Load(), built
}

// Peek returns the slot's table, or nil while none has been built or set.
func (s *Slot) Peek() *Table { return s.tab.Load() }

// Set installs a table derived from the parent snapshot's.
func (s *Slot) Set(t *Table) { s.tab.Store(t) }
