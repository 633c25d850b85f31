package graph

import "testing"

// TestEncodeCodeGolden pins the exact bytes of canonical codes. Persisted
// indexes, the store manifest's fingerprint and candidate-cache keys are all
// keyed by these strings, so any drift here must be a deliberate, reviewed
// format change.
func TestEncodeCodeGolden(t *testing.T) {
	ring := New(-1)
	for _, l := range []string{"C", "C", "N"} {
		ring.AddNode(l)
	}
	for _, e := range []struct {
		u, v  int
		label string
	}{{0, 1, "2"}, {1, 2, "1"}, {2, 0, "1"}} {
		if err := ring.AddLabeledEdge(e.u, e.v, e.label); err != nil {
			t.Fatal(err)
		}
	}
	single := New(-1)
	single.AddNode("Hg")
	escaped := labeledPath([]string{"C", `x\,()[]y`}, []string{"="})

	for _, tc := range []struct {
		name string
		g    *Graph
		want string
	}{
		{"unlabeled path", path("C", "C", "O", "C"), "(0,1,C,C)(1,2,C,O)(2,3,O,C)"},
		{"edge-labeled ring with a backward edge", ring, "(0,1,C,[1],N)(1,2,N,[1],C)(2,0,C,[2],C)"},
		{"single node", single, "(0,0,Hg,Hg)"},
		{"every escaped byte", escaped, `(0,1,C,[=],x\\\,\(\)\[\]y)`},
	} {
		if got := CanonicalCode(tc.g); got != tc.want {
			t.Errorf("%s: code %q, want %q", tc.name, got, tc.want)
		}
	}
}

// TestCanonicalCodeDelimiterLabels checks that labels containing the code's
// own delimiters cannot make two non-isomorphic graphs share a code.
func TestCanonicalCodeDelimiterLabels(t *testing.T) {
	for _, pair := range [][2]*Graph{
		// Node labels: A,B–C against A–B,C.
		{path("A,B", "C"), path("A", "B,C")},
		// An edge label that imitates a tuple boundary: A–[x],[y]–B
		// against A–[x]–"[y],B".
		{labeledPath([]string{"A", "B"}, []string{"x],[y"}), labeledPath([]string{"A", "[y],B"}, []string{"x"})},
		// The escape byte itself, which would otherwise read as escaping
		// the separator after it: A\–B,C against A,B\–C.
		{path(`A\`, "B,C"), path(`A,B\`, "C")},
	} {
		a, b := CanonicalCode(pair[0]), CanonicalCode(pair[1])
		if a == b {
			t.Errorf("non-isomorphic %v and %v share the code %q", pair[0], pair[1], a)
		}
	}
}
