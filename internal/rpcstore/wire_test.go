package rpcstore

import (
	"bytes"
	"errors"
	"io"
	"math/rand"
	"reflect"
	"testing"

	"prague/internal/graph"
	"prague/internal/index"
	"prague/internal/store"
)

func TestPackUnpackRoundTrip(t *testing.T) {
	cases := [][]int{
		nil,
		{},
		{0},
		{1023},
		{1024},
		{0, 1, 2, 3},
		{0, 1023, 1024, 2047, 2048, 1 << 20},
		{5, 63, 64, 65, 127, 128, 1000, 1024, 5000},
	}
	for _, ids := range cases {
		got := UnpackIDs(PackIDs(ids))
		want := ids
		if len(want) == 0 {
			want = nil
		}
		if len(got) == 0 {
			got = nil
		}
		if !reflect.DeepEqual(got, want) {
			t.Errorf("PackIDs/UnpackIDs(%v) = %v", ids, got)
		}
	}
}

func TestPackUnpackRandom(t *testing.T) {
	r := rand.New(rand.NewSource(1))
	for trial := 0; trial < 50; trial++ {
		n := r.Intn(500)
		seen := map[int]bool{}
		for i := 0; i < n; i++ {
			seen[r.Intn(10000)] = true
		}
		ids := make([]int, 0, len(seen))
		for id := range seen {
			ids = append(ids, id)
		}
		// PackIDs wants sorted input.
		for i := 1; i < len(ids); i++ {
			for j := i; j > 0 && ids[j] < ids[j-1]; j-- {
				ids[j], ids[j-1] = ids[j-1], ids[j]
			}
		}
		got := UnpackIDs(PackIDs(ids))
		if len(ids) == 0 {
			ids = nil
		}
		if !reflect.DeepEqual(got, ids) {
			t.Fatalf("trial %d: round trip diverged: got %d ids, want %d", trial, len(got), len(ids))
		}
	}
}

func TestPackIDsSkipsNegatives(t *testing.T) {
	got := UnpackIDs(PackIDs([]int{-5, -1, 0, 3}))
	if !reflect.DeepEqual(got, []int{0, 3}) {
		t.Errorf("got %v, want [0 3]", got)
	}
}

func TestUnpackIDsTolerantOfMalformedPages(t *testing.T) {
	pages := []BitsPage{
		{Base: -1024, Words: []uint64{^uint64(0)}},       // negative base: skipped
		{Base: 0, Words: nil},                            // no words: empty
		{Base: 1024, Words: make([]uint64, pageWords+8)}, // overlong: truncated
		{Base: 2048, Words: []uint64{1}},                 // short: fine
	}
	pages[2].Words[pageWords] = ^uint64(0) // bits beyond the page: ignored
	got := UnpackIDs(pages)
	if !reflect.DeepEqual(got, []int{2048}) {
		t.Errorf("got %v, want [2048]", got)
	}
}

var sampleProbes = []store.Probe{
	{Kind: index.KindFrequent, FreqID: 3, DifID: -1},
	{Kind: index.KindNone, FreqID: -1, DifID: -1, Phi: []int{1, 2}, Ups: []int{5}},
	{Kind: index.KindNone, FreqID: -1, DifID: -1, Ups: []int{0, 7}},
}

func TestProbePackRoundTrip(t *testing.T) {
	for _, p := range sampleProbes {
		got, err := unpackProbe(packProbe(p))
		if err != nil || !reflect.DeepEqual(got, p) {
			t.Errorf("unpackProbe(packProbe(%+v)) = %+v, %v", p, got, err)
		}
	}
	for _, w := range [][]int{nil, {1, 2, 3}, {0, -1, -1, -1}, {0, -1, -1, 2, 9}} {
		if _, err := unpackProbe(w); !errors.Is(err, ErrBadFrame) {
			t.Errorf("unpackProbe(%v): err = %v, want ErrBadFrame", w, err)
		}
	}
}

func sampleMsg() *Msg {
	return &Msg{
		Seq: 42, Op: OpCandidates, Epoch: 7,
		ErrCode: 0, Shards: []int{0, 2}, NumShards: 4, Tag: "sharded4:abc@7",
		NumGraphs:  100,
		Probes:     [][]int{packProbe(sampleProbes[0]), packProbe(sampleProbes[1])},
		Parts:      [][]BitsPage{PackIDs([]int{2, 3}), nil},
		IDs:        PackIDs([]int{1, 5, 1024}),
		GraphBlobs: [][]byte{{1, 2, 3}, nil},
		Frag:       "C-C", EntryID: 9, GraphID: 55,
	}
}

func TestFrameRoundTrip(t *testing.T) {
	for _, codec := range []Codec{CodecGob, CodecJSON} {
		t.Run(codec.String(), func(t *testing.T) {
			var buf bytes.Buffer
			m := sampleMsg()
			if err := WriteFrame(&buf, codec, m); err != nil {
				t.Fatal(err)
			}
			got, gotCodec, err := ReadFrame(&buf)
			if err != nil {
				t.Fatal(err)
			}
			if gotCodec != codec {
				t.Errorf("codec = %v, want %v", gotCodec, codec)
			}
			// JSON decodes empty slices vs nil equivalently via omitempty;
			// compare the fields that matter.
			if got.Seq != m.Seq || got.Op != m.Op || got.Epoch != m.Epoch ||
				got.Tag != m.Tag || !reflect.DeepEqual(got.Shards, m.Shards) ||
				!reflect.DeepEqual(got.Probes, m.Probes) || len(got.Parts) != len(m.Parts) ||
				!reflect.DeepEqual(UnpackIDs(got.Parts[0]), UnpackIDs(m.Parts[0])) ||
				!reflect.DeepEqual(UnpackIDs(got.IDs), UnpackIDs(m.IDs)) ||
				got.Frag != m.Frag || got.GraphID != m.GraphID {
				t.Errorf("round trip diverged:\ngot  %+v\nwant %+v", got, m)
			}
		})
	}
}

func TestFrameSelfContained(t *testing.T) {
	// Frames decode independently — mixed codecs on one stream are legal.
	var buf bytes.Buffer
	if err := WriteFrame(&buf, CodecGob, &Msg{Seq: 1, Op: OpHello}); err != nil {
		t.Fatal(err)
	}
	if err := WriteFrame(&buf, CodecJSON, &Msg{Seq: 2, Op: OpLookup}); err != nil {
		t.Fatal(err)
	}
	m1, c1, err := ReadFrame(&buf)
	if err != nil || m1.Seq != 1 || c1 != CodecGob {
		t.Fatalf("frame 1: %+v codec %v err %v", m1, c1, err)
	}
	m2, c2, err := ReadFrame(&buf)
	if err != nil || m2.Seq != 2 || c2 != CodecJSON {
		t.Fatalf("frame 2: %+v codec %v err %v", m2, c2, err)
	}
}

func TestReadFrameRejectsCorruption(t *testing.T) {
	// Oversized length prefix.
	var buf bytes.Buffer
	buf.Write([]byte{0xFF, 0xFF, 0xFF, 0xFF, 0})
	if _, _, err := ReadFrame(&buf); !errors.Is(err, ErrBadFrame) {
		t.Errorf("oversized length: err = %v, want ErrBadFrame", err)
	}
	// Zero length.
	buf.Reset()
	buf.Write([]byte{0, 0, 0, 0, 0})
	if _, _, err := ReadFrame(&buf); !errors.Is(err, ErrBadFrame) {
		t.Errorf("zero length: err = %v, want ErrBadFrame", err)
	}
	// Unknown codec byte.
	buf.Reset()
	buf.Write([]byte{0, 0, 0, 2, 9, 'x'})
	if _, _, err := ReadFrame(&buf); !errors.Is(err, ErrBadFrame) {
		t.Errorf("unknown codec: err = %v, want ErrBadFrame", err)
	}
	// Garbage payload under a valid header.
	buf.Reset()
	buf.Write([]byte{0, 0, 0, 4, byte(CodecGob), 'b', 'a', 'd'})
	if _, _, err := ReadFrame(&buf); !errors.Is(err, ErrBadFrame) {
		t.Errorf("garbage gob: err = %v, want ErrBadFrame", err)
	}
}

func TestReadFrameTransportErrorsPassThrough(t *testing.T) {
	// A truncated stream is a transport failure, not corruption: the caller
	// must be able to tell a dropped connection from a malicious peer.
	var buf bytes.Buffer
	if err := WriteFrame(&buf, CodecGob, sampleMsg()); err != nil {
		t.Fatal(err)
	}
	full := buf.Bytes()
	for _, cut := range []int{0, 2, 5, len(full) - 1} {
		_, _, err := ReadFrame(bytes.NewReader(full[:cut]))
		if err == nil {
			t.Fatalf("truncated at %d: no error", cut)
		}
		if errors.Is(err, ErrBadFrame) {
			t.Errorf("truncated at %d: got ErrBadFrame, want a transport error", cut)
		}
		if !errors.Is(err, io.EOF) && !errors.Is(err, io.ErrUnexpectedEOF) {
			t.Errorf("truncated at %d: err = %v, want EOF-ish", cut, err)
		}
	}
}

func TestWriteFrameRejectsUnknownCodec(t *testing.T) {
	var buf bytes.Buffer
	if err := WriteFrame(&buf, Codec(7), &Msg{}); !errors.Is(err, ErrBadFrame) {
		t.Errorf("err = %v, want ErrBadFrame", err)
	}
}

func TestEncodeDecodeGraph(t *testing.T) {
	g := graph.New(17)
	g.AddNode("C")
	g.AddNode("N")
	g.AddNode("O")
	g.MustAddEdge(0, 1)
	if err := g.AddLabeledEdge(1, 2, "2"); err != nil {
		t.Fatal(err)
	}
	blob, err := EncodeGraph(g)
	if err != nil {
		t.Fatal(err)
	}
	got, err := DecodeGraph(blob)
	if err != nil {
		t.Fatal(err)
	}
	if got.ID != 17 || got.NumNodes() != 3 || got.NumEdges() != 2 {
		t.Fatalf("decoded %d nodes %d edges id %d", got.NumNodes(), got.NumEdges(), got.ID)
	}
	if !got.HasEdge(1, 2) || got.EdgeLabel(1, 2) != "2" {
		t.Error("labeled edge lost in transit")
	}
	if _, err := DecodeGraph([]byte("junk")); !errors.Is(err, ErrBadFrame) {
		t.Errorf("junk blob: err = %v, want ErrBadFrame", err)
	}
}

func TestParseCodec(t *testing.T) {
	for name, want := range map[string]Codec{"": CodecGob, "gob": CodecGob, "json": CodecJSON} {
		got, err := ParseCodec(name)
		if err != nil || got != want {
			t.Errorf("ParseCodec(%q) = %v, %v", name, got, err)
		}
	}
	if _, err := ParseCodec("xml"); err == nil {
		t.Error("ParseCodec(xml) succeeded")
	}
}
