package rpcstore

import (
	"bytes"
	"encoding/binary"
	"encoding/gob"
	"encoding/hex"
	"encoding/json"
	"errors"
	"io"
	"math"
	"math/rand"
	"reflect"
	"runtime"
	"strings"
	"testing"

	"prague/internal/graph"
	"prague/internal/index"
	"prague/internal/raceflag"
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
	for _, m := range []*Msg{sampleMsg(), {}, {Seq: ^uint64(0), Op: OpLookup, ErrCode: -1, Kind: math.MinInt64, EntryID: math.MaxInt64}} {
		var buf bytes.Buffer
		if err := WriteFrame(&buf, CodecBinary, m); err != nil {
			t.Fatal(err)
		}
		got, codec, err := ReadFrame(&buf)
		if err != nil {
			t.Fatal(err)
		}
		if codec != CodecBinary {
			t.Errorf("codec = %d, want CodecBinary", codec)
		}
		if !reflect.DeepEqual(got, m) {
			t.Errorf("round trip diverged:\ngot  %+v\nwant %+v", got, m)
		}
		if buf.Len() != 0 {
			t.Errorf("%d bytes left after the frame", buf.Len())
		}
	}
}

func TestFrameSelfContained(t *testing.T) {
	// Frames decode independently, and a frame's bytes do not depend on what
	// the stream carried before it.
	alone := frameBytes(t, &Msg{Seq: 2, Op: OpLookup, Frag: "C-C"})
	var buf bytes.Buffer
	if err := WriteFrame(&buf, CodecBinary, &Msg{Seq: 1, Op: OpHello}); err != nil {
		t.Fatal(err)
	}
	first := buf.Len()
	if err := WriteFrame(&buf, CodecBinary, &Msg{Seq: 2, Op: OpLookup, Frag: "C-C"}); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(buf.Bytes()[first:], alone) {
		t.Errorf("frame after another = %x, alone = %x", buf.Bytes()[first:], alone)
	}
	m1, _, err := ReadFrame(&buf)
	if err != nil || m1.Seq != 1 || m1.Op != OpHello {
		t.Fatalf("frame 1: %+v err %v", m1, err)
	}
	m2, _, err := ReadFrame(&buf)
	if err != nil || m2.Seq != 2 || m2.Frag != "C-C" {
		t.Fatalf("frame 2: %+v err %v", m2, err)
	}
}

// frameBytes is m's whole frame as WriteFrame writes it.
func frameBytes(tb testing.TB, m *Msg) []byte {
	tb.Helper()
	var buf bytes.Buffer
	if err := WriteFrame(&buf, CodecBinary, m); err != nil {
		tb.Fatal(err)
	}
	return buf.Bytes()
}

// rawFrame wraps a body in a frame header carrying tag.
func rawFrame(tag Codec, body []byte) []byte {
	f := binary.BigEndian.AppendUint32(nil, uint32(len(body)+1))
	return append(append(f, byte(tag)), body...)
}

// legacyFrames are sampleMsg as a peer from before the binary layout sent
// it: a gob envelope under tag 0 and a JSON envelope under tag 1.
func legacyFrames(tb testing.TB) [][]byte {
	tb.Helper()
	var gobBody bytes.Buffer
	if err := gob.NewEncoder(&gobBody).Encode(sampleMsg()); err != nil {
		tb.Fatal(err)
	}
	jsonBody, err := json.Marshal(sampleMsg())
	if err != nil {
		tb.Fatal(err)
	}
	return [][]byte{rawFrame(0, gobBody.Bytes()), rawFrame(1, jsonBody)}
}

// malformedFrames are frames every reader must refuse with ErrBadFrame.
func malformedFrames(tb testing.TB) map[string][]byte {
	tb.Helper()
	hello := frameBytes(tb, &Msg{Op: OpHello})[5:]
	page := frameBytes(tb, &Msg{IDs: PackIDs([]int{1})})[5:]
	legacy := legacyFrames(tb)
	return map[string][]byte{
		"oversized length": {0xFF, 0xFF, 0xFF, 0xFF, byte(CodecBinary)},
		"zero length":      {0, 0, 0, 0, byte(CodecBinary)},
		"unknown tag":      rawFrame(9, []byte("x")),
		"empty body":       rawFrame(CodecBinary, nil),
		"garbage":          rawFrame(CodecBinary, []byte("bad")),
		"count past end":   rawFrame(CodecBinary, []byte{0, 0x7F, 'x'}),
		"overlong varint":  rawFrame(CodecBinary, bytes.Repeat([]byte{0xFF}, 11)),
		"trailing byte":    rawFrame(CodecBinary, append(hello, 0)),
		"short words":      rawFrame(CodecBinary, page[:len(page)-6]),
		"int overflow":     rawFrame(CodecBinary, append([]byte{0, 0, 0}, bytes.Repeat([]byte{0xFF}, 10)...)),
		"legacy gob":       legacy[0],
		"legacy json":      legacy[1],
	}
}

func TestReadFrameRejectsCorruption(t *testing.T) {
	for name, f := range malformedFrames(t) {
		if _, _, err := ReadFrame(bytes.NewReader(f)); !errors.Is(err, ErrBadFrame) {
			t.Errorf("%s: err = %v, want ErrBadFrame", name, err)
		}
	}
}

func TestReadFrameTransportErrorsPassThrough(t *testing.T) {
	// A truncated stream is a transport failure, not corruption: the caller
	// must be able to tell a dropped connection from a malicious peer.
	full := frameBytes(t, sampleMsg())
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

// TestReadFrameBareHeaderAllocatesLittle: a header announcing a near-MaxFrame
// body and then nothing is a truncated stream, and the reader must not have
// allocated the announced size ahead of the bytes.
func TestReadFrameBareHeaderAllocatesLittle(t *testing.T) {
	hdr := binary.BigEndian.AppendUint32(nil, MaxFrame-1)
	hdr = append(hdr, byte(CodecBinary))
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	_, _, err := ReadFrame(bytes.NewReader(hdr))
	runtime.ReadMemStats(&after)
	if !errors.Is(err, io.ErrUnexpectedEOF) {
		t.Errorf("err = %v, want io.ErrUnexpectedEOF", err)
	}
	if d := after.TotalAlloc - before.TotalAlloc; d >= 1<<20 {
		t.Errorf("bare header allocated %d bytes, want < 1 MiB", d)
	}
}

// TestParseMsgAllocBounded decodes the costliest body per byte — a list of
// empty lists, one slice header per body byte — and checks the decode stays
// within its documented 24 bytes per body byte.
func TestParseMsgAllocBounded(t *testing.T) {
	const n = 1 << 16
	body := []byte{0, 0, 0, 0, 0, 0, 0, 0, 0} // Seq … NumGraphs
	body = binary.AppendUvarint(body, n)      // Probes
	body = append(body, make([]byte, n)...)   // n empty probes
	body = append(body, make([]byte, 7)...)   // Parts … GraphID
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	var m Msg
	err := parseMsg(body, &m)
	runtime.ReadMemStats(&after)
	if err != nil || len(m.Probes) != n {
		t.Fatalf("parseMsg: %d probes, err %v", len(m.Probes), err)
	}
	if d := after.TotalAlloc - before.TotalAlloc; d > 24*uint64(len(body))+4096 {
		t.Errorf("decode of %d bytes allocated %d", len(body), d)
	}
}

// TestFrameLayoutGolden pins the wire bytes. The layout is a contract
// between separately deployed binaries: if this fails, the change reorders
// or re-encodes a field, and every peer must move with it.
func TestFrameLayoutGolden(t *testing.T) {
	zeros := func(words int) string { return strings.Repeat("0000000000000000", words) }
	sample := strings.Join([]string{
		"000001c5", "02", // body length + 1, layout tag
		"2a",                                  // Seq 42
		"04" + "63616e64",                     // Op "cand"
		"07",                                  // Epoch 7
		"00",                                  // ErrCode 0
		"00",                                  // Error ""
		"02" + "00" + "04",                    // Shards [0 2]
		"08",                                  // NumShards 4
		"0e" + "73686172646564343a6162634037", // Tag "sharded4:abc@7"
		"c801",                                // NumGraphs 100
		"02",                                  // Probes: 2
		"04" + "02" + "06" + "01" + "00",      //   frequent 3, DIF -1, |Φ| 0
		"07" + "00" + "01" + "01" + "04" + "02" + "04" + "0a", // NIF, -1, -1, |Φ| 2, Φ [1 2], Υ [5]
		"02", // Parts: 2
		"01" + "00" + "10" + "0c00000000000000" + zeros(15), // [{0, ids 2 3}]
		"00", //   nil
		"02", // IDs: 2 pages
		"00" + "10" + "2200000000000000" + zeros(15),   // {0, ids 1 5}
		"8010" + "10" + "0100000000000000" + zeros(15), // {1024, id 1024}
		"02" + "03" + "010203" + "00",                  // GraphBlobs [{1 2 3} nil]
		"03" + "432d43",                                // Frag "C-C"
		"00",                                           // Kind 0
		"12",                                           // EntryID 9
		"6e",                                           // GraphID 55
	}, "")
	for _, c := range []struct {
		name string
		m    *Msg
		want string
	}{
		{"lookup", &Msg{Op: OpLookup}, "00000018" + "02" + "00" + "06" + "6c6f6f6b7570" + strings.Repeat("00", 15)},
		{"sample", sampleMsg(), sample},
	} {
		if got := hex.EncodeToString(frameBytes(t, c.m)); got != c.want {
			t.Errorf("%s frame:\ngot  %s\nwant %s", c.name, got, c.want)
		}
	}
}

// TestFrameAllocBudget pins what one candidates reply costs the codec:
// WriteFrame reuses its pooled buffer, and ReadFrame allocates the body, the
// Msg, its op string, the parts list and per part its pages and words, and
// the frame header, which escapes through the io.Reader.
func TestFrameAllocBudget(t *testing.T) {
	if raceflag.Enabled {
		t.Skip("allocation budgets are not meaningful under -race")
	}
	m := &Msg{Op: OpCandidates, Epoch: 7}
	for i := 0; i < 6; i++ {
		m.Parts = append(m.Parts, PackIDs([]int{i, 64 + i, 700 + i}))
	}
	var buf bytes.Buffer
	var rd bytes.Reader
	const budget = 17
	if n := testing.AllocsPerRun(100, func() {
		buf.Reset()
		if err := WriteFrame(&buf, CodecBinary, m); err != nil {
			t.Fatal(err)
		}
		rd.Reset(buf.Bytes())
		if _, _, err := ReadFrame(&rd); err != nil {
			t.Fatal(err)
		}
	}); n > budget {
		t.Errorf("WriteFrame+ReadFrame of a six-part reply: %.0f allocs/op, budget %d", n, budget)
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
