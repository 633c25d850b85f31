// Package rpcstore lifts the store.Store abstraction over the network: a
// Server exposes one store replica's shard API (index probes, candidate
// enumeration, graph access, epoch-pinned reads, mutation) on a TCP
// listener, and a client-side RemoteStore implements store.Store by
// scatter-gathering those servers — so the engine, candidate cache, SLO
// runtime, and service layers run unchanged over a multi-process topology.
//
// The wire format is deliberately boring: length-prefixed frames, each a
// one-byte codec tag (gob or JSON) followed by one encoded Msg envelope.
// Frames are self-contained (a fresh codec instance per frame), so a
// connection can be dropped and redialed at any frame boundary, and either
// side may speak either codec per frame. Candidate and live-id sets travel
// as compressed bitset pages (BitsPage) rather than id lists; data graphs
// travel as gob blobs (graph.Graph implements GobEncode/GobDecode)
// regardless of the envelope codec.
package rpcstore

import (
	"bytes"
	"encoding/binary"
	"encoding/gob"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"math/bits"

	"prague/internal/graph"
	"prague/internal/index"
	"prague/internal/store"
)

// Codec selects the envelope encoding for one frame.
type Codec byte

const (
	// CodecGob encodes envelopes with encoding/gob (compact, the default).
	CodecGob Codec = 0
	// CodecJSON encodes envelopes with encoding/json (debuggable by eye).
	CodecJSON Codec = 1
)

func (c Codec) String() string {
	switch c {
	case CodecGob:
		return "gob"
	case CodecJSON:
		return "json"
	default:
		return "unknown"
	}
}

// ParseCodec resolves a codec name ("gob" or "json") for CLI flags.
func ParseCodec(name string) (Codec, error) {
	switch name {
	case "gob", "":
		return CodecGob, nil
	case "json":
		return CodecJSON, nil
	}
	return 0, fmt.Errorf("rpcstore: unknown codec %q (want gob or json)", name)
}

// MaxFrame caps one frame's payload; a peer announcing more is treated as
// corrupt rather than trusted with an allocation.
const MaxFrame = 64 << 20

// ErrBadFrame wraps every framing/decoding failure (oversized length
// prefix, unknown codec tag, undecodable payload). Test with errors.Is.
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

// Op names. Strings, not iota: they are visible in JSON frames and gob
// streams, and a version skew between coordinator and server surfaces as a
// readable codeBadRequest instead of a misrouted handler.
const (
	OpHello      = "hello"
	OpCandidates = "cand"
	OpGraphs     = "graphs"
	OpLookup     = "lookup"
	OpInsert     = "insert"
	OpDelete     = "delete"
)

// Msg is the flat request/reply envelope shared by every op and both
// codecs. Unused fields stay zero; gob omits them and JSON keeps them
// cheap via omitempty.
type Msg struct {
	Seq   uint64 `json:"seq"`
	Op    string `json:"op"`
	Epoch uint64 `json:"epoch,omitempty"` // request: pinned epoch; reply: epoch answered at

	// Reply error surface.
	ErrCode int    `json:"err_code,omitempty"`
	Error   string `json:"error,omitempty"`

	// OpHello reply: the server's topology and store identity. Shards is
	// also the OpCandidates request's replica group: the shards to probe.
	Shards    []int  `json:"shards,omitempty"`     // shard ids this server serves
	NumShards int    `json:"num_shards,omitempty"` // partition count N of the layout
	Tag       string `json:"tag,omitempty"`        // store.CacheTag at Epoch
	NumGraphs int    `json:"num_graphs,omitempty"` // id-space size (slots incl. tombstones)

	// OpCandidates: every probe one action needs, each flattened by
	// packProbe (request), and per probe its candidates merged over the
	// requested shards (reply, aligned with Probes).
	Probes [][]int      `json:"probes,omitempty"`
	Parts  [][]BitsPage `json:"parts,omitempty"`

	// Id sets: OpHello replies (live universe), OpGraphs requests (wanted
	// ids).
	IDs []BitsPage `json:"ids,omitempty"`

	// OpGraphs reply (gob blobs aligned with the request ids) and OpInsert
	// request (one blob).
	GraphBlobs [][]byte `json:"graph_blobs,omitempty"`

	// OpLookup request (canonical code) and reply (Kind + entry id).
	Frag    string `json:"frag,omitempty"`
	Kind    int    `json:"kind,omitempty"`
	EntryID int    `json:"entry_id,omitempty"`

	// OpInsert reply / OpDelete request-and-reply: the graph id.
	GraphID int `json:"graph_id,omitempty"`
}

// BitsPage is one 1024-bit span of a compressed id set: ids
// [Base, Base+1024) where bit (id-Base) is set. Pages are emitted in
// ascending Base order with all-zero pages omitted, so dense candidate
// lists cost ~1/64th of their id-list size on the wire.
type BitsPage struct {
	Base  int      `json:"base"`
	Words []uint64 `json:"words"`
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
// Φ and Υ. A flat int list keeps nested struct types out of the envelope:
// frames use a fresh gob codec each, so every frame — every lookup and
// mutation too — would carry and compile such a type's descriptor.
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

// WriteFrame writes one envelope as a length-prefixed frame: 4-byte
// big-endian payload length, 1 codec byte, then the encoded envelope.
func WriteFrame(w io.Writer, codec Codec, m *Msg) error {
	var body bytes.Buffer
	switch codec {
	case CodecGob:
		if err := gob.NewEncoder(&body).Encode(m); err != nil {
			return fmt.Errorf("rpcstore: encode frame: %w", err)
		}
	case CodecJSON:
		if err := json.NewEncoder(&body).Encode(m); err != nil {
			return fmt.Errorf("rpcstore: encode frame: %w", err)
		}
	default:
		return fmt.Errorf("rpcstore: write: unknown codec %d: %w", codec, ErrBadFrame)
	}
	if body.Len()+1 > MaxFrame {
		return fmt.Errorf("rpcstore: frame of %d bytes exceeds MaxFrame: %w", body.Len(), ErrBadFrame)
	}
	var hdr [5]byte
	binary.BigEndian.PutUint32(hdr[:4], uint32(body.Len()+1))
	hdr[4] = byte(codec)
	if _, err := w.Write(hdr[:]); err != nil {
		return err
	}
	_, err := w.Write(body.Bytes())
	return err
}

// ReadFrame reads one frame and decodes its envelope, reporting which codec
// the peer used. Oversized lengths, unknown codec tags, and undecodable
// payloads all wrap ErrBadFrame; genuine transport failures (EOF, timeouts)
// pass through untouched so callers can tell corruption from disconnection.
func ReadFrame(r io.Reader) (*Msg, Codec, error) {
	var hdr [5]byte
	if _, err := io.ReadFull(r, hdr[:]); err != nil {
		return nil, 0, err
	}
	n := binary.BigEndian.Uint32(hdr[:4])
	if n == 0 || n > MaxFrame {
		return nil, 0, fmt.Errorf("rpcstore: frame length %d: %w", n, ErrBadFrame)
	}
	codec := Codec(hdr[4])
	body := make([]byte, n-1)
	if _, err := io.ReadFull(r, body); err != nil {
		return nil, 0, err
	}
	var m Msg
	switch codec {
	case CodecGob:
		if err := gob.NewDecoder(bytes.NewReader(body)).Decode(&m); err != nil {
			return nil, codec, fmt.Errorf("rpcstore: decode gob frame: %w: %v", ErrBadFrame, err)
		}
	case CodecJSON:
		if err := json.Unmarshal(body, &m); err != nil {
			return nil, codec, fmt.Errorf("rpcstore: decode json frame: %w: %v", ErrBadFrame, err)
		}
	default:
		return nil, codec, fmt.Errorf("rpcstore: read: unknown codec %d: %w", codec, ErrBadFrame)
	}
	return &m, codec, nil
}
