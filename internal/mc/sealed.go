package mc

// The sealed tier: compact immutable storage for visited states whose
// BFS level has finished expanding.
//
// The level-synchronous engine guarantees that an entry becomes
// immutable the moment its own level's barrier completes: a min-key
// takeover can only rewrite entries claimed in the *current* level, and
// a level's entries are current exactly while that level's successors
// are being generated. After that, only three things are ever read
// again — membership (duplicate probes), the parent ref (trace
// reconstruction) and the encoding itself (trace materialization,
// checkpoints). None of those needs the 32-byte live slot or the
// 8-byte probe cell, so at each level boundary the just-expanded
// frontier migrates out of the live log into this tier:
//
//   - blob: a delta-compressed encoding arena. Entries are appended in
//     final-claim-key order (the frontier order the engine already
//     computed — no extra sort), and successive states in one shard
//     then differ in only a handful of bytes, which an XOR byte-mask
//     records far more compactly than prefix sharing would: the packed
//     codec scatters a field flip across the encoding, defeating
//     front-coding, while a diff mask pays exactly one bit per byte
//     plus the changed bytes (~7.6 B/state on the 6-node set vs 18
//     raw). Every sealedRestartEvery-th ordinal restarts the chain with
//     a full encoding so random access decodes a bounded walk.
//   - restarts: the blob offset of each restart record, so decoding
//     ordinal q starts at restarts[q/16] and applies at most 15 deltas.
//   - index: a quotiented probe table of uint32 cells
//     [remainder:6 | ordinal+1:26]. The live index needs 8-byte cells
//     because its 32-bit hash fragment is the only cheap confirm; here
//     a remainder hit is confirmed by decoding the candidate entry and
//     comparing full encodings, so the cell only needs enough hash to
//     keep false decodes rare (the probe position supplies the other
//     bits) and the ordinal to decode. Duplicate hits against the
//     sealed tier resolve unconditionally — a sealed entry can never be
//     re-keyed, so the claim path returns ClaimDup without even
//     loading a key.
//
// Mutation happens only at level boundaries (or single-threaded
// restore), strictly between the worker joins of one level and the
// goroutine spawns of the next, so readers never race writers and no
// cell or blob access needs atomics.
//
// Parent words: a parent *ref* + 1 (0 = root), addressing the parent's
// sealed ordinal, delta-coded against the previous record's (siblings
// share a parent, so the common delta is 0 — one byte). The engine
// rewrites a live parent ref to its sealed ordinal before encoding; a
// distributed worker claims with its parents' sealed ordinals already
// assigned (ShardStore.AssignRefs), so both write the same bytes.

import (
	"bytes"
	"encoding/binary"
	"fmt"
	"math/bits"
)

const (
	// sealedRestartEvery is the delta-chain restart interval: ordinals
	// divisible by it store their full encoding.
	sealedRestartEvery = 16

	// Quotiented index cell layout: [rem:6 | ordinal+1:26]. The
	// remainder is the top sealedRemBits of the 32-bit probe hash (the
	// bits least correlated with the probe position, which uses the low
	// bits); ordinal+1 fits because the shard ordinal space is ordBits
	// wide and claim panics before exceeding it.
	sealedRemBits  = 6
	sealedRemShift = 32 - sealedRemBits
	sealedOrdMask  = 1<<(32-sealedRemBits) - 1

	// sealedIndexGrowAt mirrors the live index's growth schedule: the
	// table grows when count exceeds 3/4 capacity, quadrupling below
	// growDoubleAt cells and doubling past it. Keeping the schedules
	// identical means a checkpoint reader replaying inserts lands on
	// exactly the writer's capacities, so resident bytes survive a
	// resume unchanged.
	sealedInitialCells = 32
)

// sealedShard is one shard's sealed tier. All fields are read
// concurrently during a level and written only at barriers.
type sealedShard struct {
	count    uint32
	blob     []byte
	restarts []uint32
	index    []uint32

	// The delta chain across seal batches: the previous batch's final
	// encoding and parent word, so a batch's first record (unless it
	// falls on a restart) chains off the entry physically before it.
	lastEnc []byte
	lastPW  uint64
}

// sealedGrow is the index growth schedule, shared with the checkpoint
// reader's replay.
func sealedGrow(cells int) int {
	if cells < growDoubleAt {
		return cells * 4
	}
	return cells * 2
}

// arenaEnsure grows blob capacity by ~25% steps (4 KiB floor) instead
// of append's doubling, bounding counted-vs-allocated slack; resident
// accounting tracks len, and a 2x doubling slack on a 20 MB arena
// would dwarf every other approximation in the budget.
func (ss *sealedShard) arenaEnsure(n int) {
	need := len(ss.blob) + n
	if need <= cap(ss.blob) {
		return
	}
	newCap := cap(ss.blob) + cap(ss.blob)/4
	if newCap < need {
		newCap = need
	}
	if newCap < 4096 {
		newCap = 4096
	}
	grown := make([]byte, len(ss.blob), newCap)
	copy(grown, ss.blob)
	ss.blob = grown
}

// appendEntry seals one entry: enc with parent word pw, in batch (key)
// order. Returns the entry's sealed ordinal.
func (ss *sealedShard) appendEntry(enc []byte, pw uint64) uint32 {
	ord := ss.count
	restart := ord%sealedRestartEvery == 0
	if restart {
		ss.restarts = append(ss.restarts, uint32(len(ss.blob)))
	}
	ss.arenaEnsure(binary.MaxVarintLen64 + binary.MaxVarintLen32 + len(enc) + (len(enc)+7)/8)
	if restart {
		ss.blob = binary.AppendUvarint(ss.blob, pw)
	} else {
		ss.blob = binary.AppendVarint(ss.blob, int64(pw)-int64(ss.lastPW))
	}
	ss.blob = binary.AppendUvarint(ss.blob, uint64(len(enc)))
	if restart || len(enc) != len(ss.lastEnc) {
		ss.blob = append(ss.blob, enc...)
	} else {
		// Mask, then the changed bytes, written in place: arenaEnsure
		// reserved room for the mask plus every byte changing.
		maskOff := len(ss.blob)
		n := maskOff + (len(enc)+7)/8
		blob := ss.blob[:n+len(enc)]
		clear(blob[maskOff:n])
		for i, b := range enc {
			if b != ss.lastEnc[i] {
				blob[maskOff+i/8] |= 1 << (i % 8)
				blob[n] = b
				n++
			}
		}
		ss.blob = blob[:n]
	}
	ss.lastEnc = append(ss.lastEnc[:0], enc...)
	ss.lastPW = pw
	ss.count = ord + 1
	return ord
}

// sealedDecoder walks arena records sequentially, maintaining the
// rolling encoding buffer and parent word the delta chain needs.
type sealedDecoder struct {
	ss  *sealedShard
	ord uint32 // ordinal the next step() will produce
	off int
	enc []byte
	pw  uint64
}

// startAt positions the decoder on the restart block containing ord.
func (d *sealedDecoder) startAt(ss *sealedShard, ord uint32) {
	d.ss = ss
	d.ord = ord - ord%sealedRestartEvery
	d.off = int(ss.restarts[d.ord/sealedRestartEvery])
	d.enc = d.enc[:0]
	d.pw = 0
}

// step decodes the record at the decoder's position into its rolling
// state: parent word, then encoding. It trusts arena invariants
// (callers decoding untrusted bytes use stepChecked); slice bounds
// remain the backstop.
func (d *sealedDecoder) step() {
	v, n := uvarint(d.ss.blob[d.off:])
	d.off += n
	if d.ord%sealedRestartEvery == 0 {
		d.pw = v
	} else {
		// Zig-zag delta, as binary.AppendVarint writes it.
		d.pw = uint64(int64(d.pw) + (int64(v>>1) ^ -int64(v&1)))
	}
	d.stepEnc()
}

// skipStep advances past the record at the decoder's position, decoding
// only its encoding: the parent word is stepped over unread, so d.pw is
// meaningless afterwards. The sealed-tier confirm (find) compares
// encodings only and decodes up to sixteen records per candidate, so
// the cumulative parent-delta arithmetic would be pure overhead there.
func (d *sealedDecoder) skipStep() {
	blob := d.ss.blob
	for blob[d.off] >= 0x80 {
		d.off++
	}
	d.off++
	d.stepEnc()
}

// stepEnc decodes the encoding half of a record (length, then either
// the full bytes or an XOR byte-mask plus the changed bytes) into the
// rolling buffer. Only the mask's set bits are visited: the mask is
// loaded eight bytes at a time and walked with TrailingZeros64, so a
// record costs one step per changed byte instead of one per encoding
// byte.
func (d *sealedDecoder) stepEnc() {
	blob := d.ss.blob
	encLen64, n := uvarint(blob[d.off:])
	d.off += n
	encLen := int(encLen64)
	if d.ord%sealedRestartEvery == 0 || encLen != len(d.enc) {
		d.enc = append(d.enc[:0], blob[d.off:d.off+encLen]...)
		d.off += encLen
		d.ord++
		return
	}
	maskLen := (encLen + 7) / 8
	mask := blob[d.off : d.off+maskLen]
	src := d.off + maskLen
	enc := d.enc
	for base := 0; base < maskLen; base += 8 {
		var w uint64
		if maskLen-base >= 8 {
			w = binary.LittleEndian.Uint64(mask[base:])
		} else {
			for j := maskLen - 1; j >= base; j-- {
				w = w<<8 | uint64(mask[j])
			}
		}
		for ; w != 0; w &= w - 1 {
			enc[base*8+bits.TrailingZeros64(w)] = blob[src]
			src++
		}
	}
	d.off = src
	d.ord++
}

// uvarint is binary.Uvarint with an inlined fast path for the one-byte
// values that dominate the arena: encoding lengths and sibling parent
// deltas of 0.
func uvarint(b []byte) (uint64, int) {
	if b[0] < 0x80 {
		return uint64(b[0]), 1
	}
	return binary.Uvarint(b)
}

// errSealedCorrupt marks invalid arena bytes found while decoding an
// untrusted (checkpoint-loaded) arena.
var errSealedCorrupt = fmt.Errorf("invalid sealed-arena record")

// stepChecked is step with full bounds validation, for arenas read
// from a checkpoint file rather than built in-process.
func (d *sealedDecoder) stepChecked(maxEnc int) error {
	ss := d.ss
	restart := d.ord%sealedRestartEvery == 0
	if restart {
		ri := int(d.ord / sealedRestartEvery)
		if ri >= len(ss.restarts) || int(ss.restarts[ri]) != d.off {
			return errSealedCorrupt
		}
	}
	if restart {
		pw, n := binary.Uvarint(ss.blob[d.off:])
		if n <= 0 {
			return errSealedCorrupt
		}
		d.pw = pw
		d.off += n
	} else {
		delta, n := binary.Varint(ss.blob[d.off:])
		if n <= 0 {
			return errSealedCorrupt
		}
		d.pw = uint64(int64(d.pw) + delta)
		d.off += n
	}
	encLen64, n := binary.Uvarint(ss.blob[d.off:])
	if n <= 0 || encLen64 > uint64(maxEnc) {
		return errSealedCorrupt
	}
	d.off += n
	encLen := int(encLen64)
	if restart || encLen != len(d.enc) {
		if d.off+encLen > len(ss.blob) {
			return errSealedCorrupt
		}
		d.enc = append(d.enc[:0], ss.blob[d.off:d.off+encLen]...)
		d.off += encLen
	} else {
		maskLen := (encLen + 7) / 8
		if d.off+maskLen > len(ss.blob) {
			return errSealedCorrupt
		}
		mask := ss.blob[d.off : d.off+maskLen]
		d.off += maskLen
		for i := 0; i < encLen; i++ {
			if mask[i/8]&(1<<(i%8)) != 0 {
				if d.off >= len(ss.blob) {
					return errSealedCorrupt
				}
				d.enc[i] = ss.blob[d.off]
				d.off++
			}
		}
	}
	d.ord++
	return nil
}

// decodeAt random-accesses ordinal ord: O(sealedRestartEvery) steps
// from the preceding restart. The returned encoding aliases the
// decoder's rolling buffer.
func (d *sealedDecoder) decodeAt(ss *sealedShard, ord uint32) (enc []byte, pw uint64) {
	d.startAt(ss, ord)
	for d.ord <= ord {
		d.step()
	}
	return d.enc, d.pw
}

// find probes the quotiented index for enc (probe hash ph): a cell
// whose remainder matches is confirmed by decoding its entry and
// comparing full encodings, so collisions in (position, remainder)
// resolve exactly. The confirm decodes encodings only (skipStep): parent
// words are stepped over, leaving d.pw meaningless. Returns the sealed
// ordinal on a hit.
func (ss *sealedShard) find(ph uint32, enc []byte, d *sealedDecoder) (uint32, bool) {
	cells := ss.index
	if len(cells) == 0 {
		return 0, false
	}
	mask := uint32(len(cells) - 1)
	rem := ph >> sealedRemShift
	for i := ph & mask; ; i = (i + 1) & mask {
		cell := cells[i]
		if cell == 0 {
			return 0, false
		}
		if cell>>sealedRemShift == rem {
			ord := cell&sealedOrdMask - 1
			d.startAt(ss, ord)
			for d.ord <= ord {
				d.skipStep()
			}
			if bytes.Equal(d.enc, enc) {
				return ord, true
			}
		}
	}
}

// indexInsert inserts ordinal ord with probe hash ph. The caller
// guarantees capacity (see indexEnsure).
func (ss *sealedShard) indexInsert(ph uint32, ord uint32) {
	cells := ss.index
	mask := uint32(len(cells) - 1)
	i := ph & mask
	for cells[i] != 0 {
		i = (i + 1) & mask
	}
	cells[i] = ph>>sealedRemShift<<sealedRemShift | (ord + 1)
}

// indexNeedsGrow reports whether admitting one more entry would push
// the table past 3/4 load (or the table doesn't exist yet).
func (ss *sealedShard) indexNeedsGrow() bool {
	return len(ss.index) == 0 || uint64(ss.count+1)*4 > uint64(len(ss.index))*3
}

// indexGrow allocates the next-capacity table and repopulates it by a
// sequential, encoding-only decode sweep of the arena — cells hold only
// 6 remainder bits, not enough to rehash, but a linear decode
// re-derives every (hash, ordinal) pair at ~O(count) cost amortized
// over the growth schedule. Returns the resident bytes added (new cells) and freed
// (old cells) separately so the caller can record the transient peak
// while both tables are live.
func (ss *sealedShard) indexGrow(d *sealedDecoder) (added, freed int64) {
	newLen := sealedInitialCells
	for uint64(ss.count+1)*4 > uint64(newLen)*3 {
		newLen = sealedGrow(newLen)
	}
	if newLen <= len(ss.index) {
		return 0, 0
	}
	freed = int64(len(ss.index) * 4)
	ss.index = make([]uint32, newLen)
	if ss.count > 0 {
		d.startAt(ss, 0)
		for d.ord < ss.count {
			ord := d.ord
			d.skipStep()
			h := hashBytes(d.enc)
			ss.indexInsert(uint32(h>>32), ord)
		}
	}
	return int64(newLen * 4), freed
}

// residentBytes is the tier's exact counted footprint: arena bytes in
// use, restart offsets, and index cells. Arena slack capacity (bounded
// at ~25% by arenaEnsure) is the one deliberate omission, documented
// with the Stats fields.
func (ss *sealedShard) residentBytes() int64 {
	return int64(len(ss.blob)) + int64(len(ss.restarts)*4) + int64(len(ss.index)*4)
}
