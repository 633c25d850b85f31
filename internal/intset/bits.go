package intset

import "math/bits"

// Bits is a compressed bitset over non-negative ints: words cover only the
// occupied range [base*64, (base+len(words))*64), so a set of large dense ids
// (graph ids in one shard, FSG list entries) costs memory proportional to its
// span, not to the id universe. The zero value is an empty set. Bits is a
// reusable scratch structure: Set* methods re-slice the word buffer in place,
// so one Bits can serve unboundedly many operations without allocating.
type Bits struct {
	base  int // index of the first word; ids below 64*base are absent
	words []uint64
}

// resizeWords returns a zeroed word slice of length n reusing buf's capacity.
func resizeWords(buf []uint64, n int) []uint64 {
	if cap(buf) < n {
		return make([]uint64, n)
	}
	buf = buf[:n]
	clear(buf)
	return buf
}

// SetSorted loads b with the given sorted set of non-negative ids, replacing
// any previous contents and reusing b's buffer.
func (b *Bits) SetSorted(ids []int) {
	if len(ids) == 0 {
		b.base, b.words = 0, b.words[:0]
		return
	}
	b.base = ids[0] >> 6
	last := ids[len(ids)-1] >> 6
	b.words = resizeWords(b.words, last-b.base+1)
	for _, id := range ids {
		b.words[(id>>6)-b.base] |= 1 << (uint(id) & 63)
	}
}

// SetRange prepares b to cover ids in [lo, hi] with all bits clear, reusing
// b's buffer. lo and hi must be non-negative with lo <= hi.
func (b *Bits) SetRange(lo, hi int) {
	b.base = lo >> 6
	b.words = resizeWords(b.words, hi>>6-b.base+1)
}

// Add sets one id; it must lie inside the range given to SetRange (or within
// the span loaded by SetSorted).
func (b *Bits) Add(id int) {
	b.words[(id>>6)-b.base] |= 1 << (uint(id) & 63)
}

// And intersects b with c in place, word-at-a-time. b's span shrinks to the
// overlap of the two spans. The overlap is compacted to the front of b's
// buffer so repeated shrink/reload cycles keep the full capacity — the shard
// probe loop reloads the same scratch every intersection.
func (b *Bits) And(c *Bits) {
	lo := max(b.base, c.base)
	hi := min(b.base+len(b.words), c.base+len(c.words))
	if hi <= lo {
		b.base, b.words = 0, b.words[:0]
		return
	}
	n := hi - lo
	off := lo - b.base
	bw := b.words
	cw := c.words[lo-c.base : hi-c.base]
	for i := 0; i < n; i++ {
		bw[i] = bw[off+i] & cw[i]
	}
	b.base = lo
	b.words = bw[:n]
}

// overlap returns the words of b and of c that cover the ids both spans
// hold (empty when the spans are disjoint).
func (b *Bits) overlap(c *Bits) (bw, cw []uint64) {
	lo := max(b.base, c.base)
	hi := min(b.base+len(b.words), c.base+len(c.words))
	if hi <= lo {
		return nil, nil
	}
	return b.words[lo-b.base : hi-b.base], c.words[lo-c.base : hi-c.base]
}

// Or unions c into b in place over the overlap of the two spans; b's span
// does not change, so c's ids must lie inside it.
func (b *Bits) Or(c *Bits) {
	bw, cw := b.overlap(c)
	for i, w := range cw {
		bw[i] |= w
	}
}

// AndNot removes c's ids from b in place (b &^= c), word-at-a-time; b's span
// does not change.
func (b *Bits) AndNot(c *Bits) {
	bw, cw := b.overlap(c)
	for i, w := range cw {
		bw[i] &^= w
	}
}

// OrSorted adds a sorted id list to b in place. Like Add, every id must lie
// inside b's span.
func (b *Bits) OrSorted(ids []int) {
	for _, id := range ids {
		b.words[(id>>6)-b.base] |= 1 << (uint(id) & 63)
	}
}

// AndSorted intersects b with a sorted id list in place, using scratch as the
// word buffer for the list's bitset image.
func (b *Bits) AndSorted(ids []int, scratch *Bits) {
	scratch.SetSorted(ids)
	b.And(scratch)
}

// Len returns the number of set bits.
func (b *Bits) Len() int {
	n := 0
	for _, w := range b.words {
		n += bits.OnesCount64(w)
	}
	return n
}

// Empty reports whether no bit is set.
func (b *Bits) Empty() bool {
	for _, w := range b.words {
		if w != 0 {
			return false
		}
	}
	return true
}

// Contains reports whether id is in the set.
func (b *Bits) Contains(id int) bool {
	if id < 0 {
		return false
	}
	w := id>>6 - b.base
	if w < 0 || w >= len(b.words) {
		return false
	}
	return b.words[w]&(1<<(uint(id)&63)) != 0
}

// AppendTo appends the set's ids to dst in ascending order and returns it.
func (b *Bits) AppendTo(dst []int) []int {
	for i, w := range b.words {
		off := (b.base + i) << 6
		for w != 0 {
			dst = append(dst, off+bits.TrailingZeros64(w))
			w &= w - 1
		}
	}
	return dst
}

// IntersectInto intersects any number of sorted sets word-at-a-time using the
// two scratch bitsets and returns the result appended to dst. With zero sets
// it returns dst unchanged; with one it appends that set.
func IntersectInto(dst []int, sets [][]int, a, scratch *Bits) []int {
	switch len(sets) {
	case 0:
		return dst
	case 1:
		return append(dst, sets[0]...)
	}
	a.SetSorted(sets[0])
	for _, s := range sets[1:] {
		if a.Empty() {
			return dst
		}
		a.AndSorted(s, scratch)
	}
	return a.AppendTo(dst)
}
