package spig

import (
	"fmt"
	"math/rand"
	"sort"
	"strings"
	"testing"

	"prague/internal/query"
)

// levelSig aggregates, for one canonical code at one level, the
// classification (which is a property of the fragment alone) and the set of
// realizations, keyed order-independently by edge identity (endpoints +
// edge label) rather than step labels — step labels renumber on replay.
type levelSig struct {
	class string
	reps  map[string]bool
}

func classString(v *Vertex) string {
	phi := append([]int(nil), v.Phi...)
	ups := append([]int(nil), v.Ups...)
	sort.Ints(phi)
	sort.Ints(ups)
	return fmt.Sprintf("kind=%v freq=%d dif=%d phi=%v ups=%v", v.Kind, v.FreqID, v.DifID, phi, ups)
}

// repIdentity canonicalizes one realization as its sorted edge identities.
func repIdentity(t *testing.T, q *query.Query, rep []int) string {
	t.Helper()
	parts := make([]string, 0, len(rep))
	for _, step := range rep {
		e, ok := q.Edge(step)
		if !ok {
			t.Fatalf("realization references step %d not in the query", step)
		}
		u, v := e.A, e.B
		if u > v {
			u, v = v, u
		}
		parts = append(parts, fmt.Sprintf("%d-%d:%s", u, v, e.Label))
	}
	sort.Strings(parts)
	return strings.Join(parts, ",")
}

// setSignature flattens a SPIG set into level -> code -> (classification,
// realization set), checking two invariants on the way: the same code is
// classified identically wherever it appears, and every connected subgraph
// (realization) appears in exactly one SPIG — the paper's partition by
// largest edge label.
func setSignature(t *testing.T, S *Set, q *query.Query) map[int]map[string]*levelSig {
	t.Helper()
	sig := map[int]map[string]*levelSig{}
	for _, ell := range S.Labels() {
		s := S.Spig(ell)
		for k := 1; k <= s.MaxLevel(); k++ {
			for _, v := range s.Level(k) {
				lvl := sig[k]
				if lvl == nil {
					lvl = map[string]*levelSig{}
					sig[k] = lvl
				}
				cs := classString(v)
				entry := lvl[v.Code]
				if entry == nil {
					entry = &levelSig{class: cs, reps: map[string]bool{}}
					lvl[v.Code] = entry
				} else if entry.class != cs {
					t.Errorf("level %d code %q classified two ways:\n  %s\n  %s", k, v.Code, entry.class, cs)
				}
				for _, rep := range v.Reps {
					key := repIdentity(t, q, S.Steps(rep))
					if entry.reps[key] {
						t.Errorf("level %d code %q: realization %s appears in more than one SPIG", k, v.Code, key)
					}
					entry.reps[key] = true
				}
			}
		}
	}
	return sig
}

func diffSignatures(t *testing.T, trial int, live, replay map[int]map[string]*levelSig) {
	t.Helper()
	for k, lvl := range live {
		for code, got := range lvl {
			want := replay[k][code]
			if want == nil {
				t.Errorf("trial %d: live set has level-%d code %q, replay does not", trial, k, code)
				continue
			}
			if got.class != want.class {
				t.Errorf("trial %d: level %d code %q classification diverged:\n  live:   %s\n  replay: %s",
					trial, k, code, got.class, want.class)
			}
			for rep := range got.reps {
				if !want.reps[rep] {
					t.Errorf("trial %d: level %d code %q: live realization %s missing from replay", trial, k, code, rep)
				}
			}
			for rep := range want.reps {
				if !got.reps[rep] {
					t.Errorf("trial %d: level %d code %q: replay realization %s missing from live set", trial, k, code, rep)
				}
			}
		}
	}
	for k, lvl := range replay {
		for code := range lvl {
			if live[k] == nil || live[k][code] == nil {
				t.Errorf("trial %d: replay set has level-%d code %q, live set does not", trial, k, code)
			}
		}
	}
}

// replaySet rebuilds a SPIG set from scratch for the query's surviving
// edges. Edges are added in ascending step order except where connectivity
// forces a swap (an early survivor whose neighbors were all deleted must
// wait until the replayed fragment reaches it).
func replaySet(t *testing.T, q *query.Query, nodeLabelSeq []string) (*Set, *query.Query) {
	t.Helper()
	q2 := query.New()
	for _, l := range nodeLabelSeq {
		q2.AddNode(l)
	}
	S2 := NewSet(fuzzIndexes())
	pending := q.Steps() // ascending
	for len(pending) > 0 {
		progressed := false
		for i, step := range pending {
			e, _ := q.Edge(step)
			s2, err := q2.AddLabeledEdge(e.A, e.B, e.Label)
			if err != nil {
				continue // not reachable yet; try the next survivor
			}
			if _, err := S2.Construct(q2, s2); err != nil {
				t.Fatalf("replay construct for edge {%d,%d}: %v", e.A, e.B, err)
			}
			pending = append(pending[:i], pending[i+1:]...)
			progressed = true
			break
		}
		if !progressed {
			t.Fatalf("replay stuck: surviving edges %v are not connected", pending)
		}
	}
	return S2, q2
}

// vertexSet maps every vertex of the set, across SPIGs and levels, to its
// Fragment List.
func vertexSet(S *Set) map[*Vertex]string {
	vs := map[*Vertex]string{}
	for _, l := range S.order {
		for _, lv := range S.spigs[l].levels {
			for _, v := range lv {
				vs[v] = fmt.Sprint(v.Kind, v.FreqID, v.DifID, v.Phi, v.Ups)
			}
		}
	}
	return vs
}

// checkSurvivors asserts that DeleteEdge kept every survivor's Fragment
// List and added no vertex.
func checkSurvivors(t *testing.T, trial, step int, before, after map[*Vertex]string) {
	t.Helper()
	for v, fl := range after {
		was, ok := before[v]
		switch {
		case !ok:
			t.Fatalf("trial %d: delete e%d added %s", trial, step, v.Code)
		case was != fl:
			t.Fatalf("trial %d: delete e%d changed %s's Fragment List: %s -> %s", trial, step, v.Code, was, fl)
		}
	}
}

// TestDeleteMatchesReplay is the modification property test: after any
// sequence of edge adds and connectivity-preserving deletes, the
// incrementally maintained SPIG set describes exactly the same collection
// of connected subgraphs — same canonical codes, same index
// classifications, same realizations — as a SPIG set built from scratch
// over the surviving edges. Algorithm 6's incremental pruning must never
// drop a surviving subgraph or keep a deleted one.
func TestDeleteMatchesReplay(t *testing.T) {
	idx := fuzzIndexes()
	labels := []string{"C", "C", "C", "N", "O", "S"}
	edgeLabels := []string{"", "", "", "1", "2"}

	for trial := 0; trial < 25; trial++ {
		r := rand.New(rand.NewSource(int64(100 + trial)))
		q := query.New()
		S := NewSet(idx)
		var nodeSeq []string
		addNode := func() int {
			l := labels[r.Intn(len(labels))]
			nodeSeq = append(nodeSeq, l)
			return q.AddNode(l)
		}
		var nodes []int
		nodes = append(nodes, addNode(), addNode())

		deletes := 0
		for op := 0; op < 12 && !t.Failed(); op++ {
			switch {
			case r.Intn(10) < 6 || q.Size() == 0:
				// Add: anchored fresh node, or a cycle edge between
				// existing nodes (silently skipped when invalid).
				var u, v int
				if r.Intn(3) == 0 && len(nodes) >= 3 {
					u, v = nodes[r.Intn(len(nodes))], nodes[r.Intn(len(nodes))]
				} else {
					u = nodes[r.Intn(len(nodes))]
					v = addNode()
					nodes = append(nodes, v)
				}
				step, err := q.AddLabeledEdge(u, v, edgeLabels[r.Intn(len(edgeLabels))])
				if err != nil {
					continue
				}
				if _, err := S.Construct(q, step); err != nil {
					t.Fatalf("trial %d: construct: %v", trial, err)
				}
			default:
				var deletable []int
				for _, s := range q.Steps() {
					if q.CanDelete(s) {
						deletable = append(deletable, s)
					}
				}
				if len(deletable) == 0 {
					continue
				}
				step := deletable[r.Intn(len(deletable))]
				if err := q.DeleteEdge(step); err != nil {
					t.Fatalf("trial %d: delete e%d: %v", trial, step, err)
				}
				live0 := vertexSet(S)
				S.DeleteEdge(step)
				checkSurvivors(t, trial, step, live0, vertexSet(S))
				deletes++

				S2, q2 := replaySet(t, q, nodeSeq)
				live := setSignature(t, S, q)
				replay := setSignature(t, S2, q2)
				diffSignatures(t, trial, live, replay)
			}
		}
		if deletes == 0 {
			// Force at least one checked delete per trial when possible.
			for _, s := range q.Steps() {
				if q.CanDelete(s) {
					if err := q.DeleteEdge(s); err != nil {
						t.Fatalf("trial %d: forced delete: %v", trial, err)
					}
					S.DeleteEdge(s)
					S2, q2 := replaySet(t, q, nodeSeq)
					diffSignatures(t, trial, setSignature(t, S, q), setSignature(t, S2, q2))
					break
				}
			}
		}
	}
}
