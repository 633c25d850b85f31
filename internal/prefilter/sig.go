// Package prefilter holds the verify-prefilter's per-graph table: for every
// live data graph a signature (label and edge-triple presence masks plus
// node, edge and maximum-degree bounds) and Grafil-light feature counts
// (node labels and labeled edge triples). Both are sound superset filters
// for subgraph containment, so the engine's filter chooser can screen
// candidates with either before VF2 runs.
//
// A store owns one Table per published snapshot. The first reader builds it
// (Build); each later mutation derives its successor's table from its
// parent's in one row (Insert, Delete), sharing every untouched row. The
// package imports only graph, so stores on either side of the wire can keep
// the table without the feature-mining dependencies of internal/grafil.
package prefilter

import "prague/internal/graph"

// Sig is one graph's signature: presence masks and cheap size bounds.
type Sig struct {
	LabelMask  uint64
	TripleMask uint64
	Nodes      int32
	Edges      int32
	MaxDeg     int32
}

// FNV-1a (32-bit), hashed inline so a signature costs no allocation.
const (
	fnvOffset32 = 2166136261
	fnvPrime32  = 16777619
)

func fnvString(h uint32, s string) uint32 {
	for i := 0; i < len(s); i++ {
		h ^= uint32(s[i])
		h *= fnvPrime32
	}
	return h
}

func fnvByte(h uint32, b byte) uint32 { return (h ^ uint32(b)) * fnvPrime32 }

func labelBit(l string) uint64 { return 1 << (fnvString(fnvOffset32, l) & 63) }

// tripleBit hashes la "\x00" le "\x00" lb, with la <= lb.
func tripleBit(la, le, lb string) uint64 {
	h := fnvString(fnvOffset32, la)
	h = fnvByte(h, 0)
	h = fnvString(h, le)
	h = fnvByte(h, 0)
	h = fnvString(h, lb)
	return 1 << (h & 63)
}

// SigOf computes g's signature. It does not allocate.
func SigOf(g *graph.Graph) Sig {
	s := Sig{Nodes: int32(g.NumNodes()), Edges: int32(g.NumEdges())}
	for v := range g.NumNodes() {
		l := g.Label(v)
		s.LabelMask |= labelBit(l)
		if d := int32(g.Degree(v)); d > s.MaxDeg {
			s.MaxDeg = d
		}
	}
	for i, ed := range g.Edges() {
		la, lb := g.Label(ed.U), g.Label(ed.V)
		if lb < la {
			la, lb = lb, la
		}
		s.TripleMask |= tripleBit(la, g.EdgeLabelAt(i), lb)
	}
	return s
}

// Admits reports whether the graph of row r (nil: not live) can contain a
// fragment with query signature q: a necessary condition for subgraph
// isomorphism (masks are presence unions, so a missing query bit proves a
// missing label/triple).
func (q *Sig) Admits(r *Row) bool {
	if r == nil {
		return false
	}
	d := &r.sig
	return q.LabelMask&^d.LabelMask == 0 &&
		q.TripleMask&^d.TripleMask == 0 &&
		q.Nodes <= d.Nodes && q.Edges <= d.Edges && q.MaxDeg <= d.MaxDeg
}
