// Package rpcstore lifts the store.Store abstraction over the network: a
// Server exposes one store replica's shard API (index probes, candidate
// enumeration, graph access, epoch-pinned reads, mutation) on a TCP
// listener, and a client-side RemoteStore implements store.Store by
// scatter-gathering those servers — so the engine, candidate cache, SLO
// runtime, and service layers run unchanged over a multi-process topology.
//
// The wire format is deliberately boring: length-prefixed frames, each a
// one-byte layout tag followed by one Msg envelope in a fixed binary layout
// (appendMsg/parseMsg), written and read without reflection. Frames are
// self-contained — no state carries from one frame to the next — so a
// connection can be dropped and redialed at any frame boundary. Candidate
// and live-id sets travel as compressed bitset pages (BitsPage) rather than
// id lists; data graphs travel as gob blobs inside the envelope
// (graph.Graph implements GobEncode/GobDecode).
package rpcstore

import (
	"bytes"
	"encoding/binary"
	"encoding/gob"
	"errors"
	"fmt"
	"io"
	"math/bits"
	"sync"

	"prague/internal/graph"
	"prague/internal/index"
	"prague/internal/store"
)

// Codec is a frame's layout tag. There is one layout; the tag exists so a
// frame from a peer speaking another one is refused rather than misparsed.
type Codec byte

const (
	// CodecBinary tags the fixed binary Msg layout. Tags 0 and 1 were the
	// retired gob and JSON envelopes.
	CodecBinary Codec = 2
	// CodecGob names the one layout for callers written against the retired
	// gob envelope.
	//
	// Deprecated: use CodecBinary.
	CodecGob = CodecBinary
)

// MaxFrame caps one frame's payload; a peer announcing more is treated as
// corrupt rather than trusted with an allocation.
const MaxFrame = 64 << 20

// ErrBadFrame wraps every framing/decoding failure (oversized length
// prefix, unknown layout tag, undecodable payload). Test with errors.Is.
var ErrBadFrame = errors.New("malformed frame")

// Wire error codes: a reply's ErrCode tells the client how to treat the
// failure without string matching. codeStaleEpoch and transport errors are
// retryable; the rest are terminal for the call.
const (
	codeOK            = 0
	codeStaleEpoch    = 1 // server no longer holds the requested epoch
	codeWrongShard    = 2 // this server does not serve the requested shard
	codeEpochConflict = 3 // mutation CAS failed: server epoch != request base epoch
	codeBadRequest    = 4 // malformed request (unknown op, bad graph blob, ...)
	codeStoreErr      = 5 // the store rejected the operation (ErrNoSuchGraph, ...)
)

// Op names. Strings, not iota: they are readable in a frame dump, and a
// version skew between coordinator and server surfaces as a readable
// codeBadRequest instead of a misrouted handler.
const (
	OpHello      = "hello"
	OpCandidates = "cand"
	OpGraphs     = "graphs"
	OpLookup     = "lookup"
	OpInsert     = "insert"
	OpDelete     = "delete"
)

// Msg is the flat request/reply envelope shared by every op. Unused fields
// stay zero, and a zero field costs one byte on the wire. The field order is
// the wire order (appendMsg): reordering fields is a protocol change.
type Msg struct {
	Seq   uint64
	Op    string
	Epoch uint64 // request: pinned epoch; reply: epoch answered at

	// Reply error surface.
	ErrCode int
	Error   string

	// OpHello reply: the server's topology and store identity. Shards is
	// also the OpCandidates request's replica group: the shards to probe.
	Shards    []int  // shard ids this server serves
	NumShards int    // partition count N of the layout
	Tag       string // store.CacheTag at Epoch
	NumGraphs int    // id-space size (slots incl. tombstones)

	// OpCandidates: every probe one action needs, each flattened by
	// packProbe (request), and per probe its candidates merged over the
	// requested shards (reply, aligned with Probes).
	Probes [][]int
	Parts  [][]BitsPage

	// Id sets: OpHello replies (live universe), OpGraphs requests (wanted
	// ids).
	IDs []BitsPage

	// OpGraphs reply (gob blobs aligned with the request ids) and OpInsert
	// request (one blob).
	GraphBlobs [][]byte

	// OpLookup request (canonical code) and reply (Kind + entry id).
	Frag    string
	Kind    int
	EntryID int

	// OpInsert reply / OpDelete request-and-reply: the graph id.
	GraphID int
}

// BitsPage is one 1024-bit span of a compressed id set: ids
// [Base, Base+1024) where bit (id-Base) is set. Pages are emitted in
// ascending Base order with all-zero pages omitted, so dense candidate
// lists cost ~1/64th of their id-list size on the wire.
type BitsPage struct {
	Base  int
	Words []uint64
}

const (
	pageBits  = 1024
	pageWords = pageBits / 64
)

// PackIDs compresses a sorted non-negative id list into bitset pages.
// Unsorted or negative input is the caller's bug; PackIDs tolerates it by
// emitting whatever pages the walk produces (UnpackIDs re-sorts by
// construction — pages are keyed by Base).
func PackIDs(ids []int) []BitsPage {
	var pages []BitsPage
	cur := -1 // index into pages, -1 = none open
	for _, id := range ids {
		if id < 0 {
			continue
		}
		base := id &^ (pageBits - 1)
		if cur < 0 || pages[cur].Base != base {
			pages = append(pages, BitsPage{Base: base, Words: make([]uint64, pageWords)})
			cur = len(pages) - 1
		}
		off := id - pages[cur].Base
		pages[cur].Words[off/64] |= 1 << (off % 64)
	}
	return pages
}

// UnpackIDs expands bitset pages back into an ascending id list. Pages with
// short, long, or missing word slices are tolerated (extra words ignored);
// out-of-order pages still yield each page's ids in ascending order within
// the page.
func UnpackIDs(pages []BitsPage) []int {
	n := 0
	for _, p := range pages {
		for _, w := range p.Words {
			n += bits.OnesCount64(w)
		}
	}
	out := make([]int, 0, n)
	for _, p := range pages {
		if p.Base < 0 {
			continue
		}
		words := p.Words
		if len(words) > pageWords {
			words = words[:pageWords]
		}
		for wi, w := range words {
			for w != 0 {
				b := bits.TrailingZeros64(w)
				out = append(out, p.Base+wi*64+b)
				w &^= 1 << b
			}
		}
	}
	return out
}

// packProbe flattens a probe for the wire: kind, A²F id, A²I id, |Φ|, then
// Φ and Υ. A flat int list keeps the envelope to the few shapes the layout
// already writes, so a probe needs no layout of its own.
func packProbe(p store.Probe) []int {
	w := make([]int, 0, 4+len(p.Phi)+len(p.Ups))
	w = append(w, int(p.Kind), p.FreqID, p.DifID, len(p.Phi))
	w = append(w, p.Phi...)
	return append(w, p.Ups...)
}

// unpackProbe reverses packProbe. The probe's lists alias w.
func unpackProbe(w []int) (store.Probe, error) {
	if len(w) < 4 || w[3] < 0 || w[3] > len(w)-4 {
		return store.Probe{}, fmt.Errorf("rpcstore: probe of %d words: %w", len(w), ErrBadFrame)
	}
	p := store.Probe{Kind: index.Kind(w[0]), FreqID: w[1], DifID: w[2]}
	if n := w[3]; n > 0 {
		p.Phi = w[4 : 4+n]
	}
	if len(w) > 4+w[3] {
		p.Ups = w[4+w[3]:]
	}
	return p, nil
}

// EncodeGraph serializes a data graph for the wire.
func EncodeGraph(g *graph.Graph) ([]byte, error) {
	var buf bytes.Buffer
	if err := gob.NewEncoder(&buf).Encode(g); err != nil {
		return nil, fmt.Errorf("rpcstore: encode graph: %w", err)
	}
	return buf.Bytes(), nil
}

// DecodeGraph deserializes one EncodeGraph blob.
func DecodeGraph(blob []byte) (*graph.Graph, error) {
	var g graph.Graph
	if err := gob.NewDecoder(bytes.NewReader(blob)).Decode(&g); err != nil {
		return nil, fmt.Errorf("rpcstore: decode graph: %w: %v", ErrBadFrame, err)
	}
	return &g, nil
}

// bodyChunk bounds what ReadFrame allocates ahead of the bytes that have
// arrived: a body larger than this grows as it is read, so a bare header
// announcing MaxFrame pins one chunk, not MaxFrame.
const bodyChunk = 64 << 10

// framePool recycles WriteFrame's frame buffers; buffers that grew past
// bodyChunk (graph fetch replies) are left to the collector.
var framePool = sync.Pool{New: func() any { return new([]byte) }}

// WriteFrame writes one envelope as a length-prefixed frame: 4-byte
// big-endian payload length, 1 layout byte, then the envelope in the layout
// of appendMsg — header and body in one Write. Any codec other than
// CodecBinary is refused.
func WriteFrame(w io.Writer, codec Codec, m *Msg) error {
	if codec != CodecBinary {
		return fmt.Errorf("rpcstore: write: unknown codec %d: %w", codec, ErrBadFrame)
	}
	bp := framePool.Get().(*[]byte)
	b := appendMsg(append((*bp)[:0], 0, 0, 0, 0, byte(CodecBinary)), m)
	if len(b)-4 > MaxFrame {
		return fmt.Errorf("rpcstore: frame of %d bytes exceeds MaxFrame: %w", len(b)-5, ErrBadFrame)
	}
	binary.BigEndian.PutUint32(b, uint32(len(b)-4))
	_, err := w.Write(b)
	if cap(b) <= bodyChunk {
		*bp = b
		framePool.Put(bp)
	}
	return err
}

// ReadFrame reads one frame and decodes its envelope, reporting its layout
// (always CodecBinary). Oversized lengths, other layout tags — the retired
// gob (0) and JSON (1) envelopes among them — and undecodable payloads all
// wrap ErrBadFrame; genuine transport failures (EOF, timeouts) pass through
// untouched so callers can tell corruption from disconnection.
func ReadFrame(r io.Reader) (*Msg, Codec, error) {
	var hdr [5]byte
	if _, err := io.ReadFull(r, hdr[:]); err != nil {
		return nil, 0, err
	}
	n := binary.BigEndian.Uint32(hdr[:4])
	if n == 0 || n > MaxFrame {
		return nil, 0, fmt.Errorf("rpcstore: frame length %d: %w", n, ErrBadFrame)
	}
	if codec := Codec(hdr[4]); codec != CodecBinary {
		return nil, codec, fmt.Errorf("rpcstore: read: unknown codec %d: %w", codec, ErrBadFrame)
	}
	body, err := readBody(r, int(n-1))
	if err != nil {
		return nil, 0, err
	}
	m := new(Msg)
	if err := parseMsg(body, m); err != nil {
		return nil, CodecBinary, err
	}
	return m, CodecBinary, nil
}

// readBody reads exactly size bytes. Beyond bodyChunk the buffer grows as
// bytes arrive, so memory follows what the peer sent, not what it announced.
func readBody(r io.Reader, size int) ([]byte, error) {
	if size <= bodyChunk {
		body := make([]byte, size)
		_, err := io.ReadFull(r, body)
		return body, err
	}
	buf := bytes.NewBuffer(make([]byte, 0, bodyChunk))
	if _, err := io.CopyN(buf, r, int64(size)); err != nil {
		if err == io.EOF {
			err = io.ErrUnexpectedEOF
		}
		return nil, err
	}
	return buf.Bytes(), nil
}

// appendMsg appends m's wire layout to b: the fields in declaration order,
// unsigned integers as uvarints, signed ones as varints, strings and blobs
// as a uvarint length and the bytes, lists as a uvarint count and the
// elements, and each BitsPage as its base (varint), a word count and the
// words as fixed 8-byte little-endian values.
func appendMsg(b []byte, m *Msg) []byte {
	b = binary.AppendUvarint(b, m.Seq)
	b = appendString(b, m.Op)
	b = binary.AppendUvarint(b, m.Epoch)
	b = binary.AppendVarint(b, int64(m.ErrCode))
	b = appendString(b, m.Error)
	b = appendInts(b, m.Shards)
	b = binary.AppendVarint(b, int64(m.NumShards))
	b = appendString(b, m.Tag)
	b = binary.AppendVarint(b, int64(m.NumGraphs))
	b = binary.AppendUvarint(b, uint64(len(m.Probes)))
	for _, w := range m.Probes {
		b = appendInts(b, w)
	}
	b = binary.AppendUvarint(b, uint64(len(m.Parts)))
	for _, pages := range m.Parts {
		b = appendPages(b, pages)
	}
	b = appendPages(b, m.IDs)
	b = binary.AppendUvarint(b, uint64(len(m.GraphBlobs)))
	for _, blob := range m.GraphBlobs {
		b = binary.AppendUvarint(b, uint64(len(blob)))
		b = append(b, blob...)
	}
	b = appendString(b, m.Frag)
	b = binary.AppendVarint(b, int64(m.Kind))
	b = binary.AppendVarint(b, int64(m.EntryID))
	return binary.AppendVarint(b, int64(m.GraphID))
}

func appendString(b []byte, s string) []byte {
	return append(binary.AppendUvarint(b, uint64(len(s))), s...)
}

func appendInts(b []byte, xs []int) []byte {
	b = binary.AppendUvarint(b, uint64(len(xs)))
	for _, x := range xs {
		b = binary.AppendVarint(b, int64(x))
	}
	return b
}

func appendPages(b []byte, pages []BitsPage) []byte {
	b = binary.AppendUvarint(b, uint64(len(pages)))
	for _, p := range pages {
		b = binary.AppendVarint(b, int64(p.Base))
		b = binary.AppendUvarint(b, uint64(len(p.Words)))
		for _, w := range p.Words {
			b = binary.LittleEndian.AppendUint64(b, w)
		}
	}
	return b
}

// parseMsg decodes one appendMsg body into m. It is total: a varint that
// overflows, a count larger than the bytes left could hold, a short field or
// a trailing byte fails it with ErrBadFrame. Every count is checked before
// its allocation, so a decode allocates at most 24 bytes (one slice header)
// per body byte. Empty lists and blobs decode as nil, so decoding is
// canonical: re-encoding a decoded Msg reproduces the same envelope.
func parseMsg(body []byte, m *Msg) error {
	r := msgReader{b: body}
	m.Seq = r.uvarint()
	m.Op = r.string()
	m.Epoch = r.uvarint()
	m.ErrCode = r.int()
	m.Error = r.string()
	m.Shards = r.ints()
	m.NumShards = r.int()
	m.Tag = r.string()
	m.NumGraphs = r.int()
	if n := r.count(1); n > 0 {
		m.Probes = make([][]int, n)
		for i := range m.Probes {
			m.Probes[i] = r.ints()
		}
	}
	if n := r.count(1); n > 0 {
		m.Parts = make([][]BitsPage, n)
		for i := range m.Parts {
			m.Parts[i] = r.pages()
		}
	}
	m.IDs = r.pages()
	if n := r.count(1); n > 0 {
		m.GraphBlobs = make([][]byte, n)
		for i := range m.GraphBlobs {
			if k := r.count(1); k > 0 {
				m.GraphBlobs[i] = bytes.Clone(r.take(k))
			}
		}
	}
	m.Frag = r.string()
	m.Kind = r.int()
	m.EntryID = r.int()
	m.GraphID = r.int()
	if r.bad || len(r.b) > 0 {
		return fmt.Errorf("rpcstore: decode frame: bad field or trailing bytes at byte %d of %d: %w",
			len(body)-len(r.b), len(body), ErrBadFrame)
	}
	return nil
}

// msgReader walks one frame body. The first failure sticks: every later
// read returns a zero value and allocates nothing.
type msgReader struct {
	b   []byte
	bad bool
}

func (r *msgReader) fail() { r.bad, r.b = true, nil }

func (r *msgReader) uvarint() uint64 {
	v, n := binary.Uvarint(r.b)
	if n <= 0 {
		r.fail()
		return 0
	}
	r.b = r.b[n:]
	return v
}

func (r *msgReader) int() int {
	v, n := binary.Varint(r.b)
	if n <= 0 || int64(int(v)) != v {
		r.fail()
		return 0
	}
	r.b = r.b[n:]
	return int(v)
}

// count reads a length prefix and bounds it by what the remaining bytes
// could hold at minSize bytes per element.
func (r *msgReader) count(minSize int) int {
	v := r.uvarint()
	if v > uint64(len(r.b)/minSize) {
		r.fail()
		return 0
	}
	return int(v)
}

// take consumes n bytes; count has already bounded n by len(r.b).
func (r *msgReader) take(n int) []byte {
	s := r.b[:n:n]
	r.b = r.b[n:]
	return s
}

func (r *msgReader) string() string { return string(r.take(r.count(1))) }

func (r *msgReader) ints() []int {
	n := r.count(1)
	if n == 0 {
		return nil
	}
	xs := make([]int, n)
	for i := range xs {
		xs[i] = r.int()
	}
	return xs
}

func (r *msgReader) pages() []BitsPage {
	n := r.count(2)
	if n == 0 {
		return nil
	}
	pages := make([]BitsPage, n)
	for i := range pages {
		pages[i].Base = r.int()
		if k := r.count(8); k > 0 {
			words := r.take(8 * k)
			pages[i].Words = make([]uint64, k)
			for j := range pages[i].Words {
				pages[i].Words[j] = binary.LittleEndian.Uint64(words[8*j:])
			}
		}
	}
	return pages
}
