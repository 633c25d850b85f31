package core

import (
	"errors"
	"math/rand"
	"reflect"
	"sort"
	"testing"

	"prague/internal/intset"
)

// rankReference is Algorithm 5's ranking written over sorted lists: a map
// from graph id to distance, filled from the highest level down and sorted at
// the end. rfree and rver are keyed by SPIG level. A nil verify ranks Rfree
// alone, as the ladder's verification-free rung does; live is the trailing
// band's universe when σ ≥ |q|. It is the reference the bitset ranking is
// held to.
func rankReference(n, sigma int, exact []int, rfree, rver map[int][]int, live []int,
	verify func(d int, pending []int) ([]int, error)) ([]Result, error) {
	assigned := map[int]int{} // graph id -> distance
	for _, id := range exact {
		assigned[id] = 0
	}
	var ctxErr error
	for i := n - 1; ctxErr == nil && i >= max(n-sigma, 1); i-- {
		dist := n - i
		for _, id := range rfree[i] {
			if _, done := assigned[id]; !done {
				assigned[id] = dist
			}
		}
		if verify == nil {
			continue
		}
		done := make([]int, 0, len(assigned))
		for id := range assigned {
			done = append(done, id)
		}
		sort.Ints(done)
		confirmed, err := verify(dist, intset.Diff(rver[i], done))
		for _, id := range confirmed {
			assigned[id] = dist
		}
		ctxErr = err
	}
	if ctxErr == nil && sigma >= n {
		for _, id := range live {
			if _, done := assigned[id]; !done {
				assigned[id] = n
			}
		}
	}
	results := make([]Result, 0, len(assigned))
	for id, d := range assigned {
		results = append(results, Result{GraphID: id, Distance: d})
	}
	sort.Slice(results, func(a, b int) bool {
		if results[a].Distance != results[b].Distance {
			return results[a].Distance < results[b].Distance
		}
		return results[a].GraphID < results[b].GraphID
	})
	return results, ctxErr
}

// FuzzSimilarRanking holds the bitset ranking (Algorithm 5's and the
// ladder's verification-free rung) to rankReference on random candidate
// sets: per-level Rfree and Rver drawn independently (so they may overlap
// within a level and across levels), an exact set, a confirmed subset of
// every pending set, |q| ∈ 1..8 and σ ∈ 0..|q|+1 (so σ ≥ |q| and its trailing
// band are covered), and optionally a verify error at one level. Both sides
// must see the same pending lists and return the same results element for
// element. The ranking value is reused, as an engine reuses it across Runs.
func FuzzSimilarRanking(f *testing.F) {
	f.Add(int64(1), uint8(3), uint8(2), uint8(0))
	f.Add(int64(2), uint8(0), uint8(1), uint8(0))
	f.Add(int64(3), uint8(4), uint8(9), uint8(2))
	f.Add(int64(4), uint8(7), uint8(8), uint8(0))
	f.Add(int64(5), uint8(5), uint8(3), uint8(1))
	var r ranking
	f.Fuzz(func(t *testing.T, seed int64, qsize, sigma, failAt uint8) {
		rng := rand.New(rand.NewSource(seed))
		n := 1 + int(qsize)%8
		sig := int(sigma) % (n + 2)
		numIDs := 1 + rng.Intn(300)
		draw := func() []int {
			var ids []int
			p := rng.Float64() * rng.Float64()
			for id := 0; id < numIDs; id++ {
				if rng.Float64() < p {
					ids = append(ids, id)
				}
			}
			return ids
		}
		live, exact := draw(), draw()
		lo := max(n-sig, 1)
		rfree, rver, confirm := map[int][]int{}, map[int][]int{}, map[int][]int{}
		levels := make([]simLevel, n-lo)
		for i := n - 1; i >= lo; i-- {
			rfree[i], rver[i], confirm[n-i] = draw(), draw(), draw()
			l := &levels[n-1-i]
			l.free.SetRange(0, numIDs-1)
			l.free.OrSorted(rfree[i])
			l.ver.SetRange(0, numIDs-1)
			l.ver.OrSorted(rver[i])
		}
		errStop := errors.New("stop")
		// verify confirms the drawn subset of each pending list and records
		// what it was handed.
		verify := func(seen *[][]int) func(d int, pending []int) ([]int, error) {
			return func(d int, pending []int) ([]int, error) {
				*seen = append(*seen, pending)
				var err error
				if d == int(failAt) {
					err = errStop
				}
				return intset.Intersect(pending, confirm[d]), err
			}
		}
		var tail []int
		if sig >= n {
			tail = live
		}

		var gotPend, wantPend [][]int
		got, gotErr := r.rank(numIDs, n, exact, levels, tail, verify(&gotPend))
		want, wantErr := rankReference(n, sig, exact, rfree, rver, live, verify(&wantPend))
		if gotErr != wantErr {
			t.Fatalf("err = %v, reference %v", gotErr, wantErr)
		}
		if !sameResults(got, want) {
			t.Fatalf("n=%d σ=%d ids=%d: ranking\n%v\nreference\n%v", n, sig, numIDs, got, want)
		}
		if len(gotPend) != len(wantPend) {
			t.Fatalf("verify called for %d levels, reference %d", len(gotPend), len(wantPend))
		}
		for k := range gotPend {
			if !intset.Equal(gotPend[k], wantPend[k]) {
				t.Fatalf("level %d: pending %v, reference %v", k+1, gotPend[k], wantPend[k])
			}
		}

		// The verification-free rung: Rfree alone, no trailing band.
		quick, _ := r.rank(numIDs, n, nil, levels, nil, nil)
		quickWant, _ := rankReference(n, sig, nil, rfree, nil, nil, nil)
		if !sameResults(quick, quickWant) {
			t.Fatalf("n=%d σ=%d: verification-free ranking\n%v\nreference\n%v", n, sig, quick, quickWant)
		}

		// Reused buffers must not leak into the next ranking.
		gotPend = nil
		again, _ := r.rank(numIDs, n, exact, levels, tail, verify(&gotPend))
		if !sameResults(again, got) {
			t.Fatalf("second ranking on reused buffers\n%v\nfirst\n%v", again, got)
		}
	})
}

func sameResults(a, b []Result) bool {
	return len(a) == len(b) && (len(a) == 0 || reflect.DeepEqual(a, b))
}
