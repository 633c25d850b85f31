package rpcstore

import (
	"bytes"
	"errors"
	"io"
	"maps"
	"reflect"
	"slices"
	"testing"

	"prague/internal/store"
)

// FuzzWireCodec throws arbitrary bytes at the frame reader and checks the
// codec's safety contract: no panic and no unbounded allocation on garbage,
// every failure is either ErrBadFrame (corruption) or a transport error
// (truncation), and decoding is canonical — any frame that decodes
// re-encodes to an envelope that decodes identically, and re-encoding that
// one reproduces the same bytes. Every frame that decodes is also dispatched
// on a small in-process server, which must answer it — with an error reply
// for a malformed request — and never panic.
func FuzzWireCodec(f *testing.F) {
	db, idx := buildDB(f, 21, 30)
	st, err := store.NewSharded(db, idx, 2)
	if err != nil {
		f.Fatal(err)
	}
	srv := NewServer(st)

	seeds := []*Msg{
		{},
		{Seq: 1, Op: OpHello},
		sampleMsg(),
		{Op: OpCandidates, Epoch: ^uint64(0), Shards: []int{0}, Probes: [][]int{packProbe(store.Probe{Phi: []int{-1, 0, 1 << 30}})}},
		{Op: OpGraphs, IDs: []BitsPage{{Base: -1, Words: []uint64{1}}}},
	}
	seeds = append(append(seeds, badProbeBatches()...), badShardBatches()...)
	for _, m := range seeds {
		f.Add(frameBytes(f, m))
	}
	// Each well-formed seed again, one byte short under a header that
	// announces the shortened body: the last field is cut.
	for _, m := range seeds {
		body := frameBytes(f, m)[5:]
		f.Add(rawFrame(CodecBinary, body[:len(body)-1]))
	}
	bad := malformedFrames(f)
	for _, name := range slices.Sorted(maps.Keys(bad)) {
		f.Add(bad[name])
	}

	f.Fuzz(func(t *testing.T, data []byte) {
		m, codec, err := ReadFrame(bytes.NewReader(data))
		if err != nil {
			if !errors.Is(err, ErrBadFrame) &&
				!errors.Is(err, io.EOF) && !errors.Is(err, io.ErrUnexpectedEOF) {
				t.Fatalf("unexpected error class: %v", err)
			}
			return
		}
		if codec != CodecBinary {
			t.Fatalf("decoded a frame tagged %d", codec)
		}
		first := frameBytes(t, m)
		m2, _, err := ReadFrame(bytes.NewReader(first))
		if err != nil {
			t.Fatalf("re-decode failed: %v", err)
		}
		if !reflect.DeepEqual(m, m2) {
			t.Fatalf("envelope changed across round trip:\nfirst  %+v\nsecond %+v", m, m2)
		}
		if second := frameBytes(t, m2); !bytes.Equal(first, second) {
			t.Fatalf("re-encoding is not canonical:\nfirst  %x\nsecond %x", first, second)
		}
		if reply := srv.dispatch(m); reply == nil {
			t.Fatalf("no reply to %+v", m)
		}
	})
}
