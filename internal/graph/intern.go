package graph

import (
	"sync"
	"sync/atomic"
)

// Node labels are interned. A Graph stores one uint32 id per node, drawn
// from a single process-wide table, so the verifier compares integers and a
// label string is held once per process rather than once per node. Ids are
// process-local: they are never persisted, never sent, and never used to
// order anything. Canonical codes, LessExt, gob and the text format all work
// on the strings, which is what keeps every wire and disk byte unchanged.
//
// The id -> string direction is the read path and takes no lock. Names live
// in fixed-size chunks that never move once allocated; a new id's slot is
// written before the id is published, so anyone holding an id sees its
// name. Only the directory of chunk pointers is copied when it fills, with
// doubling capacity, so interning N distinct labels costs amortised O(1)
// each.

const (
	labelChunkBits = 8
	labelChunkSize = 1 << labelChunkBits
	labelChunkMask = labelChunkSize - 1
)

type labelChunk [labelChunkSize]string

var interner struct {
	ids sync.Map // label -> uint32
	mu  sync.Mutex
	n   uint32 // ids handed out; guarded by mu
	dir atomic.Pointer[[]*labelChunk]
}

// emptyLabel is the id of "", the label of a node no code tuple names.
var emptyLabel = InternLabel("")

// InternLabel returns the process-wide id of label, assigning the next one
// on first sight.
func InternLabel(label string) uint32 {
	if id, ok := interner.ids.Load(label); ok {
		return id.(uint32)
	}
	interner.mu.Lock()
	defer interner.mu.Unlock()
	if id, ok := interner.ids.Load(label); ok {
		return id.(uint32)
	}
	id := interner.n
	var dir []*labelChunk
	if d := interner.dir.Load(); d != nil {
		dir = *d
	}
	if c := int(id >> labelChunkBits); c == len(dir) {
		// Appending past len writes a slot no published directory exposes,
		// so readers of the old directory are undisturbed; only a full
		// directory is copied.
		dir = append(dir, new(labelChunk))
		interner.dir.Store(&dir)
	}
	dir[id>>labelChunkBits][id&labelChunkMask] = label
	interner.n++
	interner.ids.Store(label, id)
	return id
}

// labelNames is a snapshot of the id -> string table, for resolving many
// ids with one atomic load.
type labelNames []*labelChunk

func loadLabelNames() labelNames { return *interner.dir.Load() }

func (t labelNames) name(id uint32) string { return t[id>>labelChunkBits][id&labelChunkMask] }

// LabelName returns the string an interned id stands for. id must come
// from InternLabel.
func LabelName(id uint32) string { return loadLabelNames().name(id) }
