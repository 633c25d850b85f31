package intset

import (
	"math/rand"
	"reflect"
	"sort"
	"testing"
	"testing/quick"
)

// asSet canonicalizes arbitrary int slices from testing/quick into sorted
// deduplicated sets.
func asSet(raw []int8) []int {
	m := map[int]bool{}
	for _, v := range raw {
		m[int(v)] = true
	}
	var out []int
	for v := range m {
		out = append(out, v)
	}
	sort.Ints(out)
	return out
}

func refIntersect(a, b []int) []int {
	bm := map[int]bool{}
	for _, v := range b {
		bm[v] = true
	}
	var out []int
	for _, v := range a {
		if bm[v] {
			out = append(out, v)
		}
	}
	return out
}

func refUnion(a, b []int) []int {
	m := map[int]bool{}
	for _, v := range a {
		m[v] = true
	}
	for _, v := range b {
		m[v] = true
	}
	var out []int
	for v := range m {
		out = append(out, v)
	}
	sort.Ints(out)
	return out
}

func refDiff(a, b []int) []int {
	bm := map[int]bool{}
	for _, v := range b {
		bm[v] = true
	}
	var out []int
	for _, v := range a {
		if !bm[v] {
			out = append(out, v)
		}
	}
	return out
}

func eq(a, b []int) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if a[i] != b[i] {
			return false
		}
	}
	return true
}

func TestQuickIntersect(t *testing.T) {
	f := func(ra, rb []int8) bool {
		a, b := asSet(ra), asSet(rb)
		return eq(Intersect(a, b), refIntersect(a, b))
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

func TestQuickUnion(t *testing.T) {
	f := func(ra, rb []int8) bool {
		a, b := asSet(ra), asSet(rb)
		return eq(Union(a, b), refUnion(a, b))
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

func TestQuickDiff(t *testing.T) {
	f := func(ra, rb []int8) bool {
		a, b := asSet(ra), asSet(rb)
		return eq(Diff(a, b), refDiff(a, b))
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

func TestQuickAlgebraicLaws(t *testing.T) {
	// |A∩B| + |A∪B| = |A| + |B|; A\B ∪ (A∩B) = A; Subset relations.
	f := func(ra, rb []int8) bool {
		a, b := asSet(ra), asSet(rb)
		inter, uni, diff := Intersect(a, b), Union(a, b), Diff(a, b)
		if len(inter)+len(uni) != len(a)+len(b) {
			return false
		}
		if !eq(Union(diff, inter), a) {
			return false
		}
		if !Subset(inter, a) || !Subset(inter, b) || !Subset(a, uni) {
			return false
		}
		return Equal(a, a) && (len(b) == 0 || Subset(b, uni))
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

func TestQuickNormalize(t *testing.T) {
	f := func(raw []int16) bool {
		in := make([]int, len(raw))
		for i, v := range raw {
			in[i] = int(v)
		}
		out := Normalize(in)
		for i := 1; i < len(out); i++ {
			if out[i-1] >= out[i] {
				return false
			}
		}
		// Same element set.
		m := map[int]bool{}
		for _, v := range raw {
			m[int(v)] = true
		}
		if len(m) != len(out) {
			return false
		}
		for _, v := range out {
			if !m[v] {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

func TestContains(t *testing.T) {
	s := []int{1, 3, 5}
	if !Contains(s, 3) || Contains(s, 2) || Contains(nil, 1) {
		t.Error("Contains broken")
	}
}

func TestCloneIndependence(t *testing.T) {
	if Clone(nil) != nil {
		t.Error("Clone(nil) should be nil")
	}
	s := []int{1, 2}
	c := Clone(s)
	c[0] = 9
	if s[0] != 1 {
		t.Error("Clone aliases input")
	}
	if !reflect.DeepEqual(Clone(s), s) {
		t.Error("Clone changed contents")
	}
}

func TestLargeSetsAgainstReference(t *testing.T) {
	r := rand.New(rand.NewSource(1))
	for trial := 0; trial < 20; trial++ {
		a := randomSet(r, 500, 2000)
		b := randomSet(r, 500, 2000)
		if !eq(Intersect(a, b), refIntersect(a, b)) {
			t.Fatal("intersect mismatch on large set")
		}
		if !eq(Union(a, b), refUnion(a, b)) {
			t.Fatal("union mismatch on large set")
		}
		if !eq(Diff(a, b), refDiff(a, b)) {
			t.Fatal("diff mismatch on large set")
		}
	}
}

// TestBitsOrAndNotAgainstReference checks the in-place bitset algebra against
// the sorted-list reference, with the operand loaded by SetSorted so that its
// span starts at a different word than the receiver's.
func TestBitsOrAndNotAgainstReference(t *testing.T) {
	r := rand.New(rand.NewSource(2))
	var x, y Bits
	for trial := 0; trial < 50; trial++ {
		a := randomSet(r, r.Intn(300), 2000)
		b := randomSet(r, r.Intn(300), 2000)
		y.SetSorted(b)
		load := func() {
			x.SetRange(0, 1999)
			x.OrSorted(a)
		}
		load()
		if got := x.AppendTo(nil); !eq(got, a) {
			t.Fatalf("OrSorted(%v) = %v", a, got)
		}
		x.Or(&y)
		if got, want := x.AppendTo(nil), refUnion(a, b); !eq(got, want) {
			t.Fatalf("Or: got %v, want %v", got, want)
		}
		load()
		x.AndNot(&y)
		if got, want := x.AppendTo(nil), refDiff(a, b); !eq(got, want) {
			t.Fatalf("AndNot: got %v, want %v", got, want)
		}
		if x.Len() != len(refDiff(a, b)) {
			t.Fatalf("Len after AndNot = %d, want %d", x.Len(), len(refDiff(a, b)))
		}
	}
	// Disjoint spans leave the receiver unchanged.
	x.SetSorted([]int{1, 2})
	y.SetSorted([]int{5000})
	x.Or(&y)
	x.AndNot(&y)
	if got := x.AppendTo(nil); !eq(got, []int{1, 2}) {
		t.Fatalf("disjoint spans: got %v", got)
	}
}

func randomSet(r *rand.Rand, n, max int) []int {
	m := map[int]bool{}
	for i := 0; i < n; i++ {
		m[r.Intn(max)] = true
	}
	var out []int
	for v := range m {
		out = append(out, v)
	}
	sort.Ints(out)
	return out
}
