package mc

// Supporting pieces of the flat visited set's key handling (flatset.go):
// the inline slot capacity, the overflow intern table, and the state
// hash. PR 4's packed stateKey value type is gone — the flat set stores
// the canonical encoding directly in its 32-byte slots, and states move
// through the engine as 32-bit refs into those slots.

import (
	"sync"
	"unsafe"
)

// inlineStateBytes is the inline capacity of a visited-set slot: the
// packed codec needs 20 bytes for the largest (7-node) model, and test
// fixtures stay well under it.
const inlineStateBytes = 20

// internTable deduplicates encodings too long for a slot's inline
// array. Entry bytes live in append-only slab chunks and each entry is
// a zero-copy string view into its chunk, costing one allocation per
// chunk rather than one per entry.
type internTable struct {
	mu    sync.Mutex
	index map[string]uint32
	strs  []string
	slab  []byte // current chunk; never reallocated, only appended within cap
}

// internChunkBytes sizes a slab chunk; entries longer than this get a
// dedicated chunk.
const internChunkBytes = 1 << 16

// internStrBytes is the accounted per-entry overhead beyond the slab
// bytes themselves: the string header in strs. (The index map's buckets
// are NOT accounted — like slice-growth slack elsewhere, they are a
// bounded multiple of what is.)
const internStrBytes = 16

// intern returns the table index for enc, the canonical stored string
// (a stable slab view callers may retain), plus the number of bytes
// newly retained (0 when enc was already present) so the visited set
// can keep its resident accounting exact. Slab chunks are charged at
// their full capacity when allocated — a retired chunk's slack is real
// resident memory (the views into it pin the whole allocation) — and
// entries landing in an already-charged chunk add only internStrBytes,
// so every slab byte is counted exactly once.
func (t *internTable) intern(enc []byte) (uint32, string, int64) {
	t.mu.Lock()
	defer t.mu.Unlock()
	if idx, ok := t.index[string(enc)]; ok {
		return idx, t.strs[idx], 0
	}
	if t.index == nil {
		t.index = make(map[string]uint32)
	}
	var s string
	added := int64(internStrBytes)
	if len(enc) > 0 {
		if len(enc) > cap(t.slab)-len(t.slab) {
			size := internChunkBytes
			if len(enc) > size {
				size = len(enc)
			}
			// Retired chunks stay alive through the views into them.
			t.slab = make([]byte, 0, size)
			added += int64(size)
		}
		off := len(t.slab)
		t.slab = append(t.slab, enc...)
		s = unsafe.String(&t.slab[off], len(enc))
	}
	idx := uint32(len(t.strs))
	t.strs = append(t.strs, s)
	t.index[s] = idx
	return idx, s, added
}

func (t *internTable) lookup(idx uint32) string {
	t.mu.Lock()
	defer t.mu.Unlock()
	return t.strs[idx]
}

// FNV-1a (64-bit), the engine's state hash. It is computed once per
// generated successor and passed through claim: the low bits select the
// shard, the high 32 bits drive the probe sequence and the in-cell
// compare filter. 64 bits matter now — a 13M-state run probes
// million-cell tables, where a 32-bit hash split between shard and
// filter would collide constantly.
const (
	fnvOffset64 = 14695981039346656037
	fnvPrime64  = 1099511628211
)

func hashBytes(b []byte) uint64 {
	h := uint64(fnvOffset64)
	for i := 0; i < len(b); i++ {
		h = (h ^ uint64(b[i])) * fnvPrime64
	}
	return h
}
