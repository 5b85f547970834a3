package mc

// The flat open-addressing visited set.
//
// PR 4 removed the per-state heap object; this layer removes the Go map
// around it. Each of the 64 shards now owns two structures:
//
//   - An append-only entry log of fixed-width 32-byte slots (20 inline
//     encoding bytes + parent ref + packed meta word), allocated in
//     power-of-two-growing chunks so entries NEVER move once written.
//     That stability is what lets a parent pointer be a plain 32-bit
//     ref (shard | insertion ordinal) instead of a 21-byte key copy.
//   - An open-addressing probe index of uint64 cells
//     [hash fragment:32 | ordinal+1:32] with linear probing, grown by
//     allocate-and-rehash swap behind an atomic pointer. Rehashing moves
//     only 8-byte cells, never entry bytes.
//
// The claim fast path is lock-free: load the index pointer, probe cells
// with atomic loads, and resolve duplicates from earlier BFS levels
// without touching the shard mutex — safe because a cell is published
// with a release store only after its entry bytes are fully written, and
// an entry's meta word (the only mutable field a concurrent reader
// inspects) is accessed atomically. A current-level duplicate resolves
// lock-free too when the entry's key is already at or below its own:
// keys only ever fall (min-key takeover), so that claim can never win.
// Only a miss, or a current-level duplicate carrying a lower key than
// the entry's (a takeover that may race), takes the shard lock.
//
// Both slots and cells are pointer-free, so the GC never scans the set,
// and the resident footprint is exact: chunks in use × 32B + cells × 8B
// + interned overflow bytes, tracked in visitedSet.resident for
// Options.MemBudget and Stats.
//
// Storage is kept, not regrown, across levels. A seal releases the
// chunks its survivors no longer need from the count but not from the
// shard, so the next level writes into them again (a chunk the level
// did not reach is dropped); and every probe index a shard stops using
// goes into the set's tablePool, from which index growth and the seal's
// rebuild take tables of the size they need; a pooled table no one took
// for a whole level is dropped. What the set holds beyond its count is
// therefore bounded: the entry chunks the last level filled, and the
// index tables the last two levels gave up.

import (
	"bytes"
	"encoding/binary"
	"fmt"
	"math/bits"
	"sync"
	"sync/atomic"
)

// numShards is the visited-set shard count; a power of two so the shard
// index is a mask of the state hash.
const numShards = 64

const (
	shardBits = 6 // log2(numShards)
	// ordBits bounds the per-shard entry count: refs pack
	// (ordinal << shardBits | shard) into 32 bits.
	ordBits    = 32 - shardBits
	maxOrdinal = 1<<ordBits - 1

	// Entry chunks grow as 16, 32, 64, ... entries; chunk c spans
	// ordinals [16·(2^c−1), 16·(2^(c+1)−1)). 23 chunks cover every
	// ordinal ref bits can address.
	entryChunkBase = 16
	maxEntryChunks = 23

	// initialIndexCells is the probe index's starting size per shard —
	// small, because tiny test models touch most shards with a handful
	// of states each. The index quadruples while small and doubles once
	// past growDoubleAt cells, and grows when count exceeds 3/4 of
	// capacity.
	initialIndexCells = 32
	growDoubleAt      = 2048
)

// entry is one visited state: a 32-byte pointer-free slot.
//
// meta packs [spare:6 | nfield:5 | hasParent:1 | key:52]:
//
//	nfield    0 = unpublished, 1..21 = inline length+1, 31 = overflow
//	          (data[:4] then holds an intern-table index)
//	hasParent distinguishes root states from children explicitly
//	key       the state's winning (lowest) claim key — globally
//	          monotone across levels, see claimKey in engine.go
//
// data and parent are written before the index cell that publishes the
// entry and are immutable afterwards, except parent + meta which a
// same-level min-key takeover rewrites under the shard lock; meta is
// therefore accessed atomically wherever a lock-free probe can observe
// it.
type entry struct {
	data   [inlineStateBytes]byte
	parent uint32
	meta   uint64
}

const (
	keyBits        = 52
	keyMask        = 1<<keyBits - 1
	hasParentBit   = 1 << keyBits
	nfieldShift    = keyBits + 1
	nfieldOverflow = 31
)

func packMeta(nfield uint64, hasParent bool, key uint64) uint64 {
	m := nfield<<nfieldShift | key
	if hasParent {
		m |= hasParentBit
	}
	return m
}

func metaNfield(m uint64) uint64 { return m >> nfieldShift & 31 }
func metaKey(m uint64) uint64    { return m & keyMask }

// chunkOf locates ordinal o in the chunked entry log.
func chunkOf(o uint32) (c int, off uint32) {
	c = bits.Len32(o/entryChunkBase+1) - 1
	off = o - entryChunkBase*(1<<c-1)
	return c, off
}

// flatShard is one visited-set shard: the live entry log, its probe
// index, the mutex serializing inserts and same-level takeovers, and
// the sealed tier holding every level that has finished expanding
// (sealed.go).
//
// Ordinals are one space: [0, liveBase) are sealed (decoded from the
// arena), [liveBase, ordCount) are live (chunked 32-byte slots at
// position ordinal-liveBase). Sealing at a level boundary migrates the
// just-expanded frontier into the arena, compacts the surviving
// current-level claims down to position 0 and advances liveBase — refs
// therefore change across a seal, and the seal call rewrites every ref
// array the engine still holds.
type flatShard struct {
	mu       sync.Mutex
	index    atomic.Pointer[[]uint64]
	chunks   [maxEntryChunks]atomic.Pointer[[]entry]
	ordCount uint32 // entries appended; written only under mu
	liveBase uint32 // first live ordinal; written only at level barriers
	// chunksUsed is how many chunks the live log counts as in use; the
	// chunks above it are kept from an earlier level, uncounted, for
	// reuse. Written under mu or at level barriers.
	chunksUsed int
	sealed     sealedShard
}

// entryAt returns the (stable within a level) live entry for ordinal
// o, which must be >= liveBase. Callers must have observed o's
// publication: either through an index cell load or a happens-before
// edge such as the level barrier.
func (sh *flatShard) entryAt(o uint32) *entry {
	c, off := chunkOf(o - sh.liveBase)
	return &(*sh.chunks[c].Load())[off]
}

// entryAtPos addresses a live slot by position directly (seal-time
// compaction, where ordinals are in flux).
func (sh *flatShard) entryAtPos(pos uint32) *entry {
	c, off := chunkOf(pos)
	return &(*sh.chunks[c].Load())[off]
}

// visitedSet is the sharded, budget-bounded flat visited set.
type visitedSet struct {
	shards   [numShards]flatShard
	count    atomic.Int64 // states admitted; never exceeds max
	max      int64
	resident atomic.Int64 // exact live bytes: chunks + index cells + intern
	peak     atomic.Int64 // high-water resident, including growth transients
	overflow internTable  // encodings too long for a slot's inline array
	tables   tablePool    // probe indexes no shard is using

	// refsFinal marks a set whose claims carry their parents' final
	// sealed refs (a distributed worker's, see ShardStore.AssignRefs):
	// a seal must not remap the surviving live entries' parents.
	refsFinal bool

	// written marks where each shard's arena stood at the last
	// successful checkpoint write: the next segment starts there.
	written [numShards]segMark

	// Seal scratch, reused across level boundaries; scratchBytes is its
	// counted capacity so migration transients stay in the resident
	// audit. sealGroups, sealRemap and sealBase are written before the
	// per-shard phase and only read during it; sealDelta has one slot
	// per shard and sealDecs one decoder per seal worker.
	sealGroups   [numShards][]uint32
	sealRemap    [numShards][]uint32
	sealBase     [numShards]uint32
	sealDelta    [numShards]residentDelta
	sealDecs     []sealedDecoder
	scratchBytes int64
}

// residentDelta is one shard's share of a seal's resident-byte changes:
// the net change, and the highest running change at any point where a
// serial seal would call bumpPeak. Folding the shards' deltas in shard
// order reproduces a serial shard-by-shard seal's resident and peak
// exactly, whichever goroutine sealed which shard.
type residentDelta struct{ net, hi int64 }

func (r *residentDelta) add(n int64) { r.net += n }

func (r *residentDelta) bumpPeak() { r.hi = max(r.hi, r.net) }

// allShards is the ownership mask of a set holding the whole search.
const allShards = ^uint64(0)

// newVisitedSet returns an empty set bounded at maxStates states that
// holds the shards set in owned. Only owned shards get an initial probe
// index and entry chunk: a distributed worker's set never touches the
// others, so the fleet's resident bytes sum to the engine's.
func newVisitedSet(maxStates int, owned uint64) *visitedSet {
	v := &visitedSet{max: int64(maxStates)}
	// Seed the owned shards' initial probe indexes and first entry chunks
	// from two shared backing arrays: four allocations for the whole set
	// instead of two per touched shard, which is what a 64-shard layout
	// would otherwise cost even a 100-state model.
	n := bits.OnesCount64(owned)
	indexBacking := make([]uint64, n*initialIndexCells)
	chunkBacking := make([]entry, n*entryChunkBase)
	idxHeaders := make([][]uint64, n)
	chunkHeaders := make([][]entry, n)
	k := 0
	for i := range v.shards {
		if owned&(1<<i) == 0 {
			continue
		}
		lo, hi := k*initialIndexCells, (k+1)*initialIndexCells
		idxHeaders[k] = indexBacking[lo:hi:hi]
		v.shards[i].index.Store(&idxHeaders[k])
		lo, hi = k*entryChunkBase, (k+1)*entryChunkBase
		chunkHeaders[k] = chunkBacking[lo:hi:hi]
		v.shards[i].chunks[0].Store(&chunkHeaders[k])
		v.shards[i].chunksUsed = 1
		k++
	}
	v.resident.Store(int64(n) * (initialIndexCells*8 + entryChunkBase*32))
	v.bumpPeak()
	return v
}

func (v *visitedSet) bumpPeak() {
	r := v.resident.Load()
	for {
		p := v.peak.Load()
		if r <= p || v.peak.CompareAndSwap(p, r) {
			return
		}
	}
}

// Refs: a visited state is addressed by (ordinal << shardBits | shard).

func makeRef(shard, ord uint32) uint32 { return ord<<shardBits | shard }

// refShard splits a ref and reports whether it addresses the shard's
// sealed tier.
func (v *visitedSet) refShard(ref uint32) (sh *flatShard, ord uint32, sealed bool) {
	sh = &v.shards[ref&(numShards-1)]
	ord = ref >> shardBits
	return sh, ord, ord < sh.liveBase
}

// encOfLive returns the encoding of a live entry (aliases the slot or
// the intern table).
func (v *visitedSet) encOfLive(e *entry, m uint64) []byte {
	if nf := metaNfield(m); nf != nfieldOverflow {
		return e.data[:nf-1]
	}
	return []byte(v.overflow.lookup(binary.LittleEndian.Uint32(e.data[:4])))
}

// bytesOf returns the encoding of a visited state. The live inline
// path aliases the entry's slot — stable for the level's duration; the
// sealed path decodes into a fresh allocation, and is only reached
// from cold paths (traces, checkpoints, snapshots): by construction
// every ref the hot path touches is live.
func (v *visitedSet) bytesOf(ref uint32) []byte {
	sh, ord, sealed := v.refShard(ref)
	if sealed {
		var d sealedDecoder
		enc, _ := d.decodeAt(&sh.sealed, ord)
		return append([]byte(nil), enc...)
	}
	e := sh.entryAt(ord)
	return v.encOfLive(e, atomic.LoadUint64(&e.meta))
}

// stateOf converts a visited state back to the opaque State form
// (allocates; used only on cold paths: traces, checkpoints).
func (v *visitedSet) stateOf(ref uint32) State {
	return State(v.bytesOf(ref))
}

// keyOf returns the state's current (winning) claim key. Sealed
// entries report key 0: their keys can never win or lose a takeover
// again, so the tier does not store them — callers ordering by key
// (DrainLevel) only ever hold live refs.
func (v *visitedSet) keyOf(ref uint32) uint64 {
	sh, ord, sealed := v.refShard(ref)
	if sealed {
		return 0
	}
	return metaKey(atomic.LoadUint64(&sh.entryAt(ord).meta))
}

// parentWordOf returns the state's parent word: its parent ref + 1, or
// 0 for a root. Works for both tiers; only called between levels or
// after the search.
func (v *visitedSet) parentWordOf(ref uint32) uint64 {
	sh, ord, sealed := v.refShard(ref)
	if sealed {
		var d sealedDecoder
		_, pw := d.decodeAt(&sh.sealed, ord)
		return pw
	}
	e := sh.entryAt(ord)
	if atomic.LoadUint64(&e.meta)&hasParentBit == 0 {
		return 0
	}
	return uint64(e.parent) + 1
}

// parentOf returns the state's BFS parent ref, if it has one. Only
// called between levels or after the search.
func (v *visitedSet) parentOf(ref uint32) (uint32, bool) {
	pw := v.parentWordOf(ref)
	if pw == 0 {
		return 0, false
	}
	return uint32(pw - 1), true
}

// sealedStats sums the sealed tier's footprint for Stats: entry count,
// arena bytes (blob + restart offsets) and quotiented-index bytes.
func (v *visitedSet) sealedStats() (states, arena, index int64) {
	for s := range v.shards {
		ss := &v.shards[s].sealed
		states += int64(ss.count)
		arena += int64(ss.size) + int64(len(ss.restarts)*4)
		index += int64(len(ss.index) * 4)
	}
	return states, arena, index
}

// probeBuckets sizes the probe-length histogram: buckets for lengths
// 1..7, plus a tail bucket for 8+.
const probeBuckets = 8

// probeCounter accumulates a probe-length histogram; each worker owns
// one (persistent across levels) so the hot path never shares a cache
// line. It also carries the worker's sealed-tier decoder, whose
// rolling buffer would otherwise be a per-probe allocation.
type probeCounter struct {
	hist [probeBuckets]uint64
	dec  sealedDecoder
}

// sealDec returns the counter's decoder, or a fresh one for the
// counterless cold paths (restore, tests).
func (p *probeCounter) sealDec() *sealedDecoder {
	if p == nil {
		return new(sealedDecoder)
	}
	return &p.dec
}

func (p *probeCounter) add(n int) {
	if p == nil {
		return
	}
	if n > probeBuckets {
		n = probeBuckets
	}
	p.hist[n-1]++
}

// keyFields splits an encoding into the slot-comparable form: the
// nfield tag and the bytes actually stored in the slot (the encoding
// itself, or a 4-byte intern index for overflow encodings). Interning
// before the probe keeps comparison a fixed-size byte compare; equal
// encodings always intern to equal indexes.
func (v *visitedSet) keyFields(enc []byte, scratch *[4]byte) (nfield uint64, kb []byte) {
	if len(enc) <= inlineStateBytes {
		return uint64(len(enc)) + 1, enc
	}
	idx, _, added := v.overflow.intern(enc)
	if added > 0 {
		v.resident.Add(added)
		v.bumpPeak()
	}
	binary.LittleEndian.PutUint32(scratch[:], idx)
	return nfieldOverflow, scratch[:]
}

// claim tries to admit enc with the given parent ref and claim key. h is
// enc's 64-bit FNV-1a hash, computed once by the generating worker: the
// low bits select the shard, the high 32 bits drive the probe sequence
// and serve as the in-cell compare filter.
//
// levelBase is the lowest claim key minted in the current level: an
// existing entry with key < levelBase was claimed in an earlier level
// and can never be re-keyed, so such duplicates resolve entirely
// lock-free. So does a current-level duplicate whose key is not below
// the entry's: keys only fall, so it could never take over. A miss, or
// a current-level duplicate with a lower key (min-key takeover),
// re-probes under the shard lock. The state budget is checked
// before insertion, so the set never holds more than max states.
func (v *visitedSet) claim(enc []byte, h uint64, parent uint32, key uint64,
	hasParent bool, levelBase uint64, pc *probeCounter) (ClaimStatus, uint32) {
	var scratch [4]byte
	nfield, kb := v.keyFields(enc, &scratch)
	shardIdx := uint32(h) & (numShards - 1)
	sh := &v.shards[shardIdx]
	ph := uint32(h >> 32)

	if ip := sh.index.Load(); ip != nil {
		cells := *ip
		mask := uint32(len(cells) - 1)
		i := ph & mask
		for n := 1; ; n++ {
			cell := atomic.LoadUint64(&cells[i])
			if cell == 0 {
				// Not in the live snapshot. A hit against the (immutable,
				// atomics-free) sealed tier is always a prior-level
				// duplicate and resolves here; on a miss the entry is new
				// — the locked re-probe below only needs to recheck the
				// live index, because concurrent inserts are by
				// definition current-level.
				if sh.sealed.count > 0 {
					if _, ok := sh.sealed.find(ph, enc, pc.sealDec()); ok {
						pc.add(n)
						return ClaimDup, 0
					}
				}
				break // insert under lock
			}
			if uint32(cell>>32) == ph {
				e := sh.entryAt(uint32(cell) - 1)
				m := atomic.LoadUint64(&e.meta)
				if metaNfield(m) == nfield && bytes.Equal(e.data[:len(kb)], kb) {
					if k := metaKey(m); k < levelBase || k <= key {
						pc.add(n)
						return ClaimDup, 0
					}
					break // current-level duplicate with a lower key: takeover under lock
				}
			}
			i = (i + 1) & mask
		}
	}

	sh.mu.Lock()
	cells := v.indexLocked(sh)
	mask := uint32(len(cells) - 1)
	i := ph & mask
	for n := 1; ; n++ {
		cell := atomic.LoadUint64(&cells[i])
		if cell == 0 {
			if v.count.Add(1) > v.max {
				v.count.Add(-1)
				sh.mu.Unlock()
				return ClaimFull, 0
			}
			ord := sh.ordCount
			if ord >= maxOrdinal {
				sh.mu.Unlock()
				panic(fmt.Sprintf("mc: visited-set shard exceeds %d entries", maxOrdinal))
			}
			e := v.entrySlotLocked(sh, ord-sh.liveBase)
			copy(e.data[:], kb)
			e.parent = parent
			atomic.StoreUint64(&e.meta, packMeta(nfield, hasParent, key))
			sh.ordCount = ord + 1
			// Release-store the cell: the entry above is now visible to
			// any lock-free probe that observes the cell.
			atomic.StoreUint64(&cells[i], uint64(ph)<<32|uint64(ord+1))
			// Growth is driven by the live count: the index only holds
			// entries above liveBase.
			if uint64(sh.ordCount-sh.liveBase)*4 > uint64(len(cells))*3 {
				v.growIndexLocked(sh, cells)
			}
			sh.mu.Unlock()
			pc.add(n)
			return ClaimNew, makeRef(shardIdx, ord)
		}
		if uint32(cell>>32) == ph {
			e := sh.entryAt(uint32(cell) - 1)
			m := atomic.LoadUint64(&e.meta)
			if metaNfield(m) == nfield && bytes.Equal(e.data[:len(kb)], kb) {
				if k := metaKey(m); k >= levelBase && key < k {
					// Same-level duplicate with a lower key: take over
					// the parent pointer (min-key reduction).
					e.parent = parent
					atomic.StoreUint64(&e.meta, packMeta(nfield, hasParent, key))
				}
				sh.mu.Unlock()
				pc.add(n)
				return ClaimDup, 0
			}
		}
		i = (i + 1) & mask
	}
}

// find probes for an already-admitted encoding. Only called between
// levels (restore, tests), but uses the same atomic loads as claim so it
// stays race-clean anywhere.
func (v *visitedSet) find(enc []byte, h uint64) (uint32, bool) {
	var scratch [4]byte
	nfield, kb := v.keyFields(enc, &scratch)
	shardIdx := uint32(h) & (numShards - 1)
	sh := &v.shards[shardIdx]
	ip := sh.index.Load()
	if ip == nil {
		return 0, false
	}
	cells := *ip
	mask := uint32(len(cells) - 1)
	ph := uint32(h >> 32)
	for i := ph & mask; ; i = (i + 1) & mask {
		cell := atomic.LoadUint64(&cells[i])
		if cell == 0 {
			if sh.sealed.count > 0 {
				var d sealedDecoder
				if ord, ok := sh.sealed.find(ph, enc, &d); ok {
					return makeRef(shardIdx, ord), true
				}
			}
			return 0, false
		}
		if uint32(cell>>32) == ph {
			e := sh.entryAt(uint32(cell) - 1)
			m := atomic.LoadUint64(&e.meta)
			if metaNfield(m) == nfield && bytes.Equal(e.data[:len(kb)], kb) {
				return makeRef(shardIdx, uint32(cell)-1), true
			}
		}
	}
}

// indexLocked returns the shard's probe index. Caller holds sh.mu.
func (v *visitedSet) indexLocked(sh *flatShard) []uint64 {
	return *sh.index.Load()
}

// growIndexLocked swaps in a larger probe index, rehashing only the
// 8-byte cells. Caller holds sh.mu. The old index stays valid for
// concurrent lock-free probes until they re-load the pointer; a stale
// probe can only miss recent inserts, which the locked re-probe
// corrects. So the old index is retired, not freed: the pool hands it
// out again only after the level's barrier.
func (v *visitedSet) growIndexLocked(sh *flatShard, cells []uint64) {
	newLen := len(cells) * 2
	if newLen < growDoubleAt {
		newLen = len(cells) * 4
	}
	next := v.tables.get(newLen)
	// Both generations are live during the rehash; peak captures that.
	v.resident.Add(int64(newLen * 8))
	v.bumpPeak()
	mask := uint32(newLen - 1)
	for _, cell := range cells {
		if cell == 0 {
			continue
		}
		i := uint32(cell>>32) & mask
		for next[i] != 0 {
			i = (i + 1) & mask
		}
		next[i] = cell
	}
	sh.index.Store(&next)
	v.tables.retire(cells)
	// The very first index lives in the set-wide shared backing array,
	// which stays counted for the set's lifetime; only later generations
	// leave the count when replaced.
	if len(cells) > initialIndexCells {
		v.resident.Add(int64(-len(cells) * 8))
	}
}

// entrySlotLocked returns the zeroed slot for the next live position
// (ordinal − liveBase), counting its chunk on first touch — and
// allocating it, unless an earlier level left it there. Caller holds
// sh.mu. No probe can reach the slot before the caller publishes it, so
// plain stores are safe.
func (v *visitedSet) entrySlotLocked(sh *flatShard, pos uint32) *entry {
	c, off := chunkOf(pos)
	if off == 0 && c >= sh.chunksUsed {
		if sh.chunks[c].Load() == nil {
			chunk := make([]entry, entryChunkBase<<c)
			sh.chunks[c].Store(&chunk)
		}
		v.resident.Add(int64(entryChunkBase<<c) * 32)
		v.bumpPeak()
		sh.chunksUsed = c + 1
	}
	e := &(*sh.chunks[c].Load())[off]
	*e = entry{}
	return e
}

// tablePool holds the live probe indexes no shard is using, by size, for
// index growth and the seal's rebuild to take instead of allocating. A
// table index growth replaces may still be read by a lock-free probe
// that loaded it earlier in the level, so it waits in retired until the
// next seal — the level barrier — frees it. A table the seal's rebuild
// replaces has no reader left and is free at once. A free table that no
// one took for a whole level — from one seal's end to the next — is
// dropped, so the pool holds what the levels still use, not what the
// largest one did. Pooled tables are not counted; a table taken is
// cleared, so it is indistinguishable from a fresh one.
type tablePool struct {
	mu      sync.Mutex
	free    [32][][]uint64 // by log2 of the table length; taken from the top
	low     [32]int        // the fewest tables free[c] held since the last trim
	retired [][]uint64
}

func (p *tablePool) get(n int) []uint64 {
	c := bits.TrailingZeros(uint(n))
	p.mu.Lock()
	if k := len(p.free[c]); k > 0 {
		t := p.free[c][k-1]
		p.free[c][k-1] = nil
		p.free[c] = p.free[c][:k-1]
		p.low[c] = min(p.low[c], k-1)
		p.mu.Unlock()
		clear(t)
		return t
	}
	p.mu.Unlock()
	return make([]uint64, n)
}

// put frees a table no probe can still read.
func (p *tablePool) put(t []uint64) {
	c := bits.TrailingZeros(uint(len(t)))
	p.mu.Lock()
	p.free[c] = append(p.free[c], t)
	p.mu.Unlock()
}

// retire holds a table a probe may still read until release.
func (p *tablePool) retire(t []uint64) {
	p.mu.Lock()
	p.retired = append(p.retired, t)
	p.mu.Unlock()
}

// release frees the retired tables. Called at a level barrier, when no
// probe is running.
func (p *tablePool) release() {
	for i, t := range p.retired {
		p.put(t)
		p.retired[i] = nil
	}
	p.retired = p.retired[:0]
}

// trim drops the free tables no one took since the last trim: those
// below each list's low-water mark. Called at the end of a seal.
func (p *tablePool) trim() {
	for c, free := range p.free {
		n := copy(free, free[p.low[c]:])
		clear(free[n:])
		p.free[c] = free[:n]
		p.low[c] = n
	}
}

// loadFactor is the admitted-state count over total probe cells, both
// tiers.
func (v *visitedSet) loadFactor() float64 {
	cells := 0
	for i := range v.shards {
		if ip := v.shards[i].index.Load(); ip != nil {
			cells += len(*ip)
		}
		cells += len(v.shards[i].sealed.index)
	}
	if cells == 0 {
		return 0
	}
	return float64(v.count.Load()) / float64(cells)
}

// seal migrates batch — the refs of the level that just finished
// expanding, in the engine's deterministic key order — out of the live
// slots into each shard's sealed tier, compacts the surviving live
// entries (the next frontier's claims) down to position 0, and
// rewrites every ref the caller still holds (the slices passed as
// rewrite) to the post-seal ordinal space.
//
// Called only at level barriers (or single-threaded restore): the
// search's workers are quiescent, so plain loads and stores are safe,
// and the next level's spawns publish the new tier through the
// barrier's happens-before edge.
//
// The batch is grouped by shard and the remap tables are built
// serially; the per-shard work (sealShard) then runs on up to workers
// goroutines pulling shard indexes from an atomic cursor. Shards share
// nothing writable during that phase: each writes only its own shard,
// its own residentDelta slot and its own goroutine's decoder, and reads
// the remap tables, which are fixed by then.
//
// Determinism: the batch's per-shard content and order are a pure
// function of the level's key-sorted frontier, so arena bytes and index
// capacities do not depend on the worker count, and the resident and
// peak counters are folded from per-shard deltas in shard order, so
// they come out identical to a one-worker seal too.
func (v *visitedSet) seal(workers int, batch []uint32, rewrite ...[]uint32) {
	v.tables.release()
	if len(batch) == 0 {
		return
	}
	// Group the batch by shard, preserving batch (key) order: group
	// position i becomes sealed ordinal oldBase+i.
	for s := range v.sealGroups {
		v.sealGroups[s] = v.sealGroups[s][:0]
	}
	for _, r := range batch {
		s := r & (numShards - 1)
		v.sealGroups[s] = append(v.sealGroups[s], r>>shardBits)
	}

	// Remap tables for every shard with batch members: old live
	// position → new ordinal. Batch members take the next sealed
	// ordinals in batch order; survivors keep their relative arrival
	// order above them. Built for all shards before any entry moves,
	// because parent refs cross shards.
	for s := range v.shards {
		sh := &v.shards[s]
		v.sealBase[s] = sh.liveBase
		g := v.sealGroups[s]
		rm := v.sealRemap[s][:0]
		if len(g) > 0 {
			liveCount := sh.ordCount - sh.liveBase
			for i := uint32(0); i < liveCount; i++ {
				rm = append(rm, ^uint32(0))
			}
			for i, ord := range g {
				rm[ord-sh.liveBase] = sh.liveBase + uint32(i)
			}
			next := sh.liveBase + uint32(len(g))
			for p := range rm {
				if rm[p] == ^uint32(0) {
					rm[p] = next
					next++
				}
			}
		}
		v.sealRemap[s] = rm
	}

	// The scratch above is part of the set's footprint while it lives;
	// its capacity only grows, so account the delta.
	var sb int64
	for s := range v.sealGroups {
		sb += int64(cap(v.sealGroups[s]))*4 + int64(cap(v.sealRemap[s]))*4
	}
	if sb != v.scratchBytes {
		v.resident.Add(sb - v.scratchBytes)
		v.scratchBytes = sb
		v.bumpPeak()
	}

	workers = min(max(workers, 1), numShards)
	for len(v.sealDecs) < workers {
		v.sealDecs = append(v.sealDecs, sealedDecoder{})
	}
	var cursor atomic.Int32
	sealShards := func(d *sealedDecoder) {
		for {
			s := int(cursor.Add(1)) - 1
			if s >= numShards {
				return
			}
			v.sealDelta[s] = v.sealShard(s, d)
		}
	}
	if workers == 1 {
		sealShards(&v.sealDecs[0])
	} else {
		var wg sync.WaitGroup
		for w := 1; w < workers; w++ {
			wg.Add(1)
			go func(d *sealedDecoder) {
				defer wg.Done()
				sealShards(d)
			}(&v.sealDecs[w])
		}
		sealShards(&v.sealDecs[0])
		wg.Wait()
	}
	// Fold in shard order. Resident never exceeds peak between shards
	// (every increase is followed by a peak bump), so a shard whose
	// running delta never rose above zero leaves peak unchanged, as in a
	// serial seal.
	for s := range v.sealDelta {
		d := v.sealDelta[s]
		if p := v.resident.Load() + d.hi; p > v.peak.Load() {
			v.peak.Store(p)
		}
		v.resident.Add(d.net)
	}
	v.tables.trim()

	// Finally, rewrite every ref array the caller still holds.
	for _, arr := range rewrite {
		for i, r := range arr {
			arr[i] = v.remapRef(r)
		}
	}
}

// remapRef maps a pre-seal ref to its post-seal ref, using the tables
// the current seal built.
func (v *visitedSet) remapRef(r uint32) uint32 {
	s := r & (numShards - 1)
	rm := v.sealRemap[s]
	if len(rm) == 0 {
		return r // shard untouched this seal
	}
	o := r >> shardBits
	if o < v.sealBase[s] {
		return r // already sealed
	}
	return rm[o-v.sealBase[s]]<<shardBits | s
}

// sealShard is one shard's part of a seal: encode its batch group into
// the arena and quotiented index, compact the survivors, rewrite their
// parent refs, release unneeded entry chunks from the count and rebuild
// the live index. It returns the shard's resident-byte changes instead of
// applying them (see residentDelta); d is the calling goroutine's
// decoder, used when the sealed index grows.
func (v *visitedSet) sealShard(s int, d *sealedDecoder) residentDelta {
	var res residentDelta
	sh := &v.shards[s]
	g := v.sealGroups[s]
	oldBase := v.sealBase[s]
	liveCount := sh.ordCount - oldBase
	if liveCount == 0 {
		return res
	}
	ss := &sh.sealed

	// Encode the batch into the arena and quotiented index. This reads
	// live slots, so it runs before compaction moves them. A batch
	// state's parent is already sealed, so its ref is final.
	arenaBefore := int64(ss.size) + int64(len(ss.restarts)*4)
	for _, ord := range g {
		e := sh.entryAt(ord)
		enc := v.encOfLive(e, e.meta)
		var pw uint64
		if e.meta&hasParentBit != 0 {
			pw = uint64(e.parent) + 1
		}
		if ss.indexNeedsGrow() {
			added, freed := ss.indexGrow(d)
			res.add(added)
			res.bumpPeak()
			res.add(-freed)
		}
		h := hashBytes(enc)
		ss.appendEntry(enc, pw)
		ss.indexInsert(uint32(h>>32), ss.count-1)
	}
	res.add(int64(ss.size) + int64(len(ss.restarts)*4) - arenaBefore)
	res.bumpPeak()

	// Compact survivors down to position 0 (ascending, so dest ≤ src)
	// and rewrite their parent refs into the new space — needed even in
	// shards that sealed nothing, since parents cross shards — unless
	// the refs were final when claimed.
	nSurv := liveCount - uint32(len(g))
	if len(g) > 0 {
		rm := v.sealRemap[s]
		sealedEnd := oldBase + uint32(len(g))
		dst := uint32(0)
		for p := uint32(0); p < liveCount; p++ {
			if rm[p] < sealedEnd {
				continue // migrated to the sealed tier
			}
			if dst != p {
				*sh.entryAtPos(dst) = *sh.entryAtPos(p)
			}
			dst++
		}
	}
	if !v.refsFinal {
		for p := uint32(0); p < nSurv; p++ {
			e := sh.entryAtPos(p)
			if e.meta&hasParentBit != 0 {
				e.parent = v.remapRef(e.parent)
			}
		}
	}

	// Release entry chunks beyond the survivors' needs from the count;
	// the shard keeps them for the next level's claims. Chunk 0 lives in
	// the set-wide shared backing and stays counted.
	needChunks := 1
	if nSurv > 0 {
		c, _ := chunkOf(nSurv - 1)
		needChunks = c + 1
	}
	for c := needChunks; c < sh.chunksUsed; c++ {
		res.add(-int64(entryChunkBase<<c) * 32)
	}
	for c := sh.chunksUsed; c < maxEntryChunks && sh.chunks[c].Load() != nil; c++ {
		sh.chunks[c].Store(nil) // kept from an earlier level, unused in this one
	}
	sh.chunksUsed = needChunks

	// Rebuild the live index over the survivors. Capacity replays the
	// insert-driven growth schedule from the initial size, so it is a
	// pure function of the survivor count — the same capacity a fresh
	// set would reach, keeping resident bytes deterministic (and
	// matching a checkpoint reader's replay).
	newCells := initialIndexCells
	for uint64(nSurv)*4 > uint64(newCells)*3 {
		if newCells < growDoubleAt {
			newCells *= 4
		} else {
			newCells *= 2
		}
	}
	oldIdx := *sh.index.Load()
	var cells []uint64
	if len(oldIdx) == newCells {
		cells = oldIdx
		clear(cells)
	} else {
		cells = v.tables.get(newCells)
		res.add(int64(newCells) * 8)
		res.bumpPeak()
		if len(oldIdx) > initialIndexCells {
			res.add(-int64(len(oldIdx)) * 8)
		}
		v.tables.put(oldIdx)
	}
	newBase := oldBase + uint32(len(g))
	mask := uint32(newCells - 1)
	for p := uint32(0); p < nSurv; p++ {
		e := sh.entryAtPos(p)
		h := hashBytes(v.encOfLive(e, e.meta))
		i := uint32(h>>32) & mask
		for cells[i] != 0 {
			i = (i + 1) & mask
		}
		cells[i] = uint64(uint32(h>>32))<<32 | uint64(newBase+p+1)
	}
	sh.index.Store(&cells)
	sh.liveBase = newBase
	return res
}
