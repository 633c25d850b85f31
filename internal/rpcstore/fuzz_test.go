package rpcstore

import (
	"bytes"
	"errors"
	"io"
	"reflect"
	"testing"

	"prague/internal/store"
)

// FuzzWireCodec throws arbitrary bytes at the frame reader and checks the
// codec's safety contract: no panic and no unbounded allocation on garbage,
// every failure is either ErrBadFrame (corruption) or a transport error
// (truncation), and any frame that does decode re-encodes to an envelope
// that decodes identically (round-trip stability). Every frame that decodes
// is also dispatched on a small in-process server, which must answer it —
// with an error reply for a malformed request — and never panic.
func FuzzWireCodec(f *testing.F) {
	db, idx := buildDB(f, 21, 30)
	st, err := store.NewSharded(db, idx, 2)
	if err != nil {
		f.Fatal(err)
	}
	srv := NewServer(st)

	for _, codec := range []Codec{CodecGob, CodecJSON} {
		seeds := []*Msg{
			{},
			{Seq: 1, Op: OpHello},
			sampleMsg(),
			{Op: OpCandidates, Epoch: ^uint64(0), Shards: []int{0}, Probes: [][]int{packProbe(store.Probe{Phi: []int{-1, 0, 1 << 30}})}},
			{Op: OpGraphs, IDs: []BitsPage{{Base: -1, Words: []uint64{1}}}},
		}
		seeds = append(append(seeds, badProbeBatches()...), badShardBatches()...)
		for _, m := range seeds {
			var buf bytes.Buffer
			if err := WriteFrame(&buf, codec, m); err != nil {
				f.Fatal(err)
			}
			f.Add(buf.Bytes())
		}
	}
	f.Add([]byte{0, 0, 0, 2, 9, 'x'})
	f.Add([]byte{0xFF, 0xFF, 0xFF, 0xFF, 0})

	f.Fuzz(func(t *testing.T, data []byte) {
		m, codec, err := ReadFrame(bytes.NewReader(data))
		if err != nil {
			if !errors.Is(err, ErrBadFrame) &&
				!errors.Is(err, io.EOF) && !errors.Is(err, io.ErrUnexpectedEOF) {
				t.Fatalf("unexpected error class: %v", err)
			}
			return
		}
		// Whatever decoded must survive a write/read cycle byte-exactly at
		// the envelope level (the bytes may differ — gob is not canonical —
		// but the envelope must not).
		var buf bytes.Buffer
		if err := WriteFrame(&buf, codec, m); err != nil {
			t.Fatalf("re-encode of decoded frame failed: %v", err)
		}
		m2, codec2, err := ReadFrame(&buf)
		if err != nil {
			t.Fatalf("re-decode failed: %v", err)
		}
		if codec2 != codec {
			t.Fatalf("codec changed across round trip: %v -> %v", codec, codec2)
		}
		if !reflect.DeepEqual(m, m2) {
			t.Fatalf("envelope changed across round trip:\nfirst  %+v\nsecond %+v", m, m2)
		}
		if reply := srv.dispatch(m); reply == nil {
			t.Fatalf("no reply to %+v", m)
		}
	})
}
