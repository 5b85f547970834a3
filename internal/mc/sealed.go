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
//   - an arena: a delta-compressed encoding log. Entries are appended in
//     final-claim-key order (the frontier order the engine already
//     computed — no extra sort), and successive states in one shard
//     then differ in only a handful of bytes, which an XOR byte-mask
//     records far more compactly than prefix sharing would: the packed
//     codec scatters a field flip across the encoding, defeating
//     front-coding, while a diff mask pays exactly one bit per byte
//     plus the changed bytes (~7.6 B/state on the 6-node set vs 18
//     raw). Every sealedRestartEvery-th ordinal restarts the chain with
//     a full encoding so random access decodes a bounded walk. The
//     arena is a list of blocks that are appended, never regrown or
//     copied: each new block is a power of two up to an eighth of the
//     arena so far, from arenaBlockMin to arenaBlockMax, and a restart
//     group (a restart record and the deltas that follow it) never
//     spans two blocks, so a decode walks one slice. When a record does
//     not fit, its open group — at most fifteen records — moves to the
//     new block. Concatenated, the blocks are the arena's logical byte
//     stream, which is what a checkpoint segment holds.
//   - restarts: the position of each restart record, packed as
//     [block:16 | offset:16], so decoding ordinal q starts at
//     restarts[q/16] and applies at most 15 deltas.
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
// cell or arena access needs atomics.
//
// Parent words: a parent *ref* + 1 (0 = root), addressing the parent's
// sealed ordinal, delta-coded against the previous record's (siblings
// share a parent, so the common delta is 0 — one byte). The engine
// rewrites a live parent ref to its sealed ordinal before encoding; a
// distributed worker claims with its parents' sealed ordinals already
// assigned (ShardStore.AssignRefs), so both write the same bytes.
//
// Counted bytes are the logical arena length, restart offsets and index
// cells. Block capacity not written is spare and uncounted: the end of
// each shard's last block (under 64 KiB, and under an eighth of the
// arena once it passes its 4 KiB first blocks), and the tail a moved
// group leaves behind in each block before it.

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

	// A restarts word packs a restart record's position as
	// [block:16 | offset:16]. Offsets fit because a restart record only
	// opens in a block shorter than arenaBlockMax; the block count bounds
	// a shard's arena at 4 GiB, as 32-bit offsets did.
	arenaOffBits   = 16
	arenaOffMask   = 1<<arenaOffBits - 1
	arenaMaxBlocks = 1 << (32 - arenaOffBits)

	// arenaBlockMin is the first block's size, small because the many
	// tiny searches of the E1 matrix touch most shards with a handful of
	// states each.
	arenaBlockMin = 4 << 10
)

// arenaBlockMax caps a block's size. A variable only so tests can
// shrink it until blocks split on most groups.
var arenaBlockMax = 1 << arenaOffBits

// sealedShard is one shard's sealed tier. All fields are read
// concurrently during a level and written only at barriers.
type sealedShard struct {
	count    uint32
	blocks   [][]byte // the arena; each block holds whole restart groups
	size     int      // the arena's length: its blocks' lengths summed
	restarts []uint32 // [block:16 | offset:16] of each restart record
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

// appendEntry seals one entry: enc with parent word pw, in batch (key)
// order. Returns the entry's sealed ordinal.
func (ss *sealedShard) appendEntry(enc []byte, pw uint64) uint32 {
	ord := ss.count
	restart := ord%sealedRestartEvery == 0
	// Room for the record with every byte changing: the widest parent
	// word and length, then the mask and the bytes.
	need := binary.MaxVarintLen64 + binary.MaxVarintLen32 + len(enc) + (len(enc)+7)/8
	bi := len(ss.blocks) - 1
	if bi < 0 || len(ss.blocks[bi])+need > cap(ss.blocks[bi]) ||
		restart && len(ss.blocks[bi]) >= arenaBlockMax {
		bi = ss.newBlock(need, restart)
	}
	blk := ss.blocks[bi]
	start := len(blk)
	if restart {
		ss.restarts = append(ss.restarts, uint32(bi)<<arenaOffBits|uint32(start))
		blk = binary.AppendUvarint(blk, pw)
	} else {
		blk = binary.AppendVarint(blk, int64(pw)-int64(ss.lastPW))
	}
	blk = binary.AppendUvarint(blk, uint64(len(enc)))
	if restart || len(enc) != len(ss.lastEnc) {
		blk = append(blk, enc...)
	} else {
		// Mask, then the changed bytes, written in place into the room
		// reserved above.
		maskOff := len(blk)
		n := maskOff + (len(enc)+7)/8
		blk = blk[:n+len(enc)]
		clear(blk[maskOff:n])
		for i, b := range enc {
			if b != ss.lastEnc[i] {
				blk[maskOff+i/8] |= 1 << (i % 8)
				blk[n] = b
				n++
			}
		}
		blk = blk[:n]
	}
	ss.blocks[bi] = blk
	ss.size += len(blk) - start
	ss.lastEnc = append(ss.lastEnc[:0], enc...)
	ss.lastPW = pw
	ss.count = ord + 1
	return ord
}

// newBlock makes room for a record of up to need bytes that the last
// block cannot take, and returns the index of the block to write it
// into. A restart record opens a new block. Any other record belongs to
// the open group, which moves with it: the last block is cut back to
// the group's restart and the group's bytes are copied to the new block
// — or, when the group is the whole block, the block is replaced by a
// larger copy. No byte of the arena's logical stream moves, and earlier
// blocks, which checkpoint captures may still view, are never written.
// The new block is the largest power of two from arenaBlockMin up to
// arenaBlockMax that is at most an eighth of the arena so far (a size
// the allocator serves exactly), and never smaller than what it must
// hold: the unwritten end of the last block, which the count leaves
// out, stays under an eighth of the arena past its 4 KiB first blocks.
func (ss *sealedShard) newBlock(need int, restart bool) int {
	var carry []byte
	bi := len(ss.blocks) - 1
	groupOff := -1
	if !restart {
		groupOff = int(ss.restarts[len(ss.restarts)-1] & arenaOffMask)
		carry = ss.blocks[bi][groupOff:]
	}
	size := arenaBlockMin
	for size < arenaBlockMax && 16*size <= ss.size {
		size *= 2
	}
	size = max(min(size, arenaBlockMax), len(carry)+need)
	blk := append(make([]byte, 0, size), carry...)
	if groupOff == 0 {
		ss.blocks[bi] = blk
		return bi
	}
	if len(ss.blocks) == arenaMaxBlocks {
		panic(fmt.Sprintf("mc: sealed arena exceeds %d blocks", arenaMaxBlocks))
	}
	ss.blocks = append(ss.blocks, blk)
	bi++
	if groupOff > 0 {
		ss.blocks[bi-1] = ss.blocks[bi-1][:groupOff]
		ss.restarts[len(ss.restarts)-1] = uint32(bi) << arenaOffBits
	}
	return bi
}

// segment returns the arena bytes from logical offset off on, as views
// of the blocks holding them, and the restart offsets from restart nres
// on, as logical offsets relative to off: a checkpoint section's bytes.
func (ss *sealedShard) segment(off int, nres uint32) (pieces [][]byte, restarts []uint32) {
	// Walk back from the end to the block holding off: a segment is
	// usually the last few blocks.
	bi, start := len(ss.blocks), ss.size
	for start > off {
		bi--
		start -= len(ss.blocks[bi])
	}
	if bi < len(ss.blocks) {
		pieces = append(pieces, ss.blocks[bi][off-start:])
		pieces = append(pieces, ss.blocks[bi+1:]...)
	}
	// Every restart past the mark lies at or after off, so in block bi
	// or later; start tracks the logical start of block bi.
	restarts = make([]uint32, len(ss.restarts)-int(nres))
	for i, r := range ss.restarts[nres:] {
		for int(r>>arenaOffBits) > bi {
			start += len(ss.blocks[bi])
			bi++
		}
		restarts[i] = uint32(start + int(r&arenaOffMask) - off)
	}
	return pieces, restarts
}

// adopt installs an arena read from a checkpoint: pieces, whose
// concatenation is the arena, and restarts, its restart offsets there.
// The arena is split into blocks at restart-group boundaries, each a
// capped view of one piece holding up to arenaBlockMax bytes (or one
// larger group), so nothing is copied — except a group that spans two
// pieces, where a segment ended off a restart, which is copied into a
// block of its own. It refuses restart offsets that do not rise from 0
// within the arena; the records themselves are left to the checked
// decode sweep.
func (ss *sealedShard) adopt(count uint32, pieces [][]byte, restarts []uint32) error {
	total := 0
	for _, p := range pieces {
		total += len(p)
	}
	if len(restarts) == 0 || restarts[0] != 0 {
		return errSealedCorrupt
	}
	ss.count, ss.size = count, total
	ss.restarts = make([]uint32, len(restarts))
	var cur []byte // the block being built
	curPiece, curLo := -1, 0
	flush := func() {
		if cur != nil {
			ss.blocks = append(ss.blocks, cur[:len(cur):len(cur)])
		}
	}
	pi, pbase := 0, 0 // the piece holding the group's start, and its offset
	for g, lo32 := range restarts {
		lo, hi := int(lo32), total
		if g+1 < len(restarts) {
			hi = int(restarts[g+1])
		}
		if hi <= lo || hi > total {
			return errSealedCorrupt
		}
		for lo >= pbase+len(pieces[pi]) {
			pbase += len(pieces[pi])
			pi++
		}
		lo, hi = lo-pbase, hi-pbase
		switch {
		case hi <= len(pieces[pi]) && curPiece == pi && curLo+len(cur) == lo && len(cur)+hi-lo <= arenaBlockMax:
			ss.restarts[g] = uint32(len(ss.blocks))<<arenaOffBits | uint32(len(cur))
			cur = pieces[pi][curLo:hi]
			continue
		case hi <= len(pieces[pi]):
			flush()
			cur, curPiece, curLo = pieces[pi][lo:hi], pi, lo
		default: // the group runs on into the next pieces
			flush()
			n := hi - lo
			cur, curPiece = append(make([]byte, 0, n), pieces[pi][lo:]...), -1
			for q := pi + 1; len(cur) < n; q++ {
				cur = append(cur, pieces[q][:min(len(pieces[q]), n-len(cur))]...)
			}
		}
		if len(ss.blocks) == arenaMaxBlocks {
			return errSealedCorrupt
		}
		ss.restarts[g] = uint32(len(ss.blocks)) << arenaOffBits
	}
	flush()
	return nil
}

// sealedDecoder walks arena records sequentially, maintaining the
// rolling encoding buffer and parent word the delta chain needs.
type sealedDecoder struct {
	ss  *sealedShard
	blk []byte // the block holding the group being decoded
	bi  int    // its index
	ord uint32 // ordinal the next step() will produce
	off int    // the next record's offset in blk
	enc []byte
	pw  uint64
}

// startAt positions the decoder on the restart group containing ord.
func (d *sealedDecoder) startAt(ss *sealedShard, ord uint32) {
	d.ss = ss
	d.ord = ord - ord%sealedRestartEvery
	r := ss.restarts[d.ord/sealedRestartEvery]
	d.bi = int(r >> arenaOffBits)
	d.blk = ss.blocks[d.bi]
	d.off = int(r & arenaOffMask)
	d.enc = d.enc[:0]
	d.pw = 0
}

// seat keeps a sweep over the whole arena on the right block: at each
// restart it moves to the group's block. Within a group records are
// contiguous, so a sweep calls seat before every trusted step.
func (d *sealedDecoder) seat() {
	if d.ord%sealedRestartEvery == 0 {
		d.startAt(d.ss, d.ord)
	}
}

// step decodes the record at the decoder's position into its rolling
// state: parent word, then encoding. It trusts arena invariants
// (callers decoding untrusted bytes use stepChecked); slice bounds
// remain the backstop.
func (d *sealedDecoder) step() {
	v, n := uvarint(d.blk[d.off:])
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
	blk := d.blk
	for blk[d.off] >= 0x80 {
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
	blk := d.blk
	encLen64, n := uvarint(blk[d.off:])
	d.off += n
	encLen := int(encLen64)
	if d.ord%sealedRestartEvery == 0 || encLen != len(d.enc) {
		d.enc = append(d.enc[:0], blk[d.off:d.off+encLen]...)
		d.off += encLen
		d.ord++
		return
	}
	maskLen := (encLen + 7) / 8
	mask := blk[d.off : d.off+maskLen]
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
			enc[base*8+bits.TrailingZeros64(w)] = blk[src]
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
// from a checkpoint file rather than built in-process. A sweep calls it
// for every ordinal from 0 on: at each restart it checks that the group
// starts where the last one ended — further on in the same block, or at
// the start of the next once the last block is used up — and moves
// there.
func (d *sealedDecoder) stepChecked(maxEnc int) error {
	ss := d.ss
	restart := d.ord%sealedRestartEvery == 0
	if restart {
		ri := int(d.ord / sealedRestartEvery)
		if ri >= len(ss.restarts) {
			return errSealedCorrupt
		}
		bi, off := int(ss.restarts[ri]>>arenaOffBits), int(ss.restarts[ri]&arenaOffMask)
		switch {
		case bi == d.bi && off == d.off:
		case bi == d.bi+1 && bi < len(ss.blocks) && off == 0 && d.off == len(d.blk):
			d.bi, d.blk, d.off = bi, ss.blocks[bi], 0
		default:
			return errSealedCorrupt
		}
	}
	blk := d.blk
	if restart {
		pw, n := binary.Uvarint(blk[d.off:])
		if n <= 0 {
			return errSealedCorrupt
		}
		d.pw = pw
		d.off += n
	} else {
		delta, n := binary.Varint(blk[d.off:])
		if n <= 0 {
			return errSealedCorrupt
		}
		d.pw = uint64(int64(d.pw) + delta)
		d.off += n
	}
	encLen64, n := binary.Uvarint(blk[d.off:])
	if n <= 0 || encLen64 > uint64(maxEnc) {
		return errSealedCorrupt
	}
	d.off += n
	encLen := int(encLen64)
	if restart || encLen != len(d.enc) {
		if d.off+encLen > len(blk) {
			return errSealedCorrupt
		}
		d.enc = append(d.enc[:0], blk[d.off:d.off+encLen]...)
		d.off += encLen
	} else {
		maskLen := (encLen + 7) / 8
		if d.off+maskLen > len(blk) {
			return errSealedCorrupt
		}
		mask := blk[d.off : d.off+maskLen]
		d.off += maskLen
		for i := 0; i < encLen; i++ {
			if mask[i/8]&(1<<(i%8)) != 0 {
				if d.off >= len(blk) {
					return errSealedCorrupt
				}
				d.enc[i] = blk[d.off]
				d.off++
			}
		}
	}
	d.ord++
	return nil
}

// unread is what a checked sweep that decoded every ordinal left
// unread: the rest of its block and every block after it.
func (d *sealedDecoder) unread() int {
	n := len(d.blk) - d.off
	for _, b := range d.ss.blocks[d.bi+1:] {
		n += len(b)
	}
	return n
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
			d.seat()
			d.skipStep()
			h := hashBytes(d.enc)
			ss.indexInsert(uint32(h>>32), ord)
		}
	}
	return int64(newLen * 4), freed
}

// residentBytes is the tier's exact counted footprint: arena bytes in
// use, restart offsets, and index cells. Block capacity not yet written
// is the one deliberate omission, documented with the Stats fields.
func (ss *sealedShard) residentBytes() int64 {
	return int64(ss.size) + int64(len(ss.restarts)*4) + int64(len(ss.index)*4)
}
