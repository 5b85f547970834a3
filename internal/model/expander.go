package model

// Expander is the allocation-free successor generator behind mc's hot
// path. Each exploration worker owns one; every piece of working storage
// a single expansion needs — the decoded state, the per-node choice
// lists, the successor accumulator, the packed output buffer and the
// dedup index — lives in the Expander and is reused call over call, so a
// steady-state Successors call performs no heap allocation at all
// (asserted by the AllocsPerRun regression tests).
//
// Three observations about the enumeration make it fast:
//
//   - A node choice always contributes the same 20 bits to the packed
//     encoding wherever it lands, and the coupler/out-of-slot tail is
//     fixed per fault assignment. So each choice is pre-packed once into
//     a 20-bit word, and the cartesian recursion threads a tiny
//     by-value encoder state (byte position + bit accumulator) instead
//     of re-running the field-by-field bit writer for every emitted
//     state — the per-emit cost drops from ~29 put calls to one word
//     push per node plus the tail.
//   - Distinct fault assignments often produce identical channel
//     contents (a silenced empty channel IS the empty channel; a replay
//     of the buffered frame can equal the nominal relay). Identical
//     (channels, activity, out-of-slot) tuples generate identical
//     successor sets, so a small signature list skips the whole
//     enumeration for repeats.
//   - Accepted encodings are fixed-width, so successor i lives at
//     buf[i*size:(i+1)*size] and duplicate detection is a
//     generation-stamped open-addressing probe over int32 indexes — no
//     sorted-insert memmove, no per-call clearing.
//
// Scratch ownership rules (see DESIGN.md "hot path & memory layout"):
// the returned [][]byte and the encodings it points into belong to the
// Expander and are valid only until the next Successors or explain call.
// An Expander is not safe for concurrent use; Model.NewExpander mints an
// independent one per worker.

import (
	"bytes"
	"encoding/binary"
	"fmt"

	"ttastar/internal/mc"
)

// candBytes bounds a packed encoding: binarySize(7, MaxCouplers) = 21 for
// the largest configurable cluster, padded so the dedup hash can read
// whole words.
const candBytes = 24

// Expander generates packed successor encodings against reusable
// per-worker scratch. Zero value is not usable; obtain one from
// Model.NewExpander.
type Expander struct {
	m        *Model
	size     int   // binarySize(nodes, couplers): every emitted encoding is this wide
	nc       int   // the model's coupler count
	tailBits int32 // width of the per-fault-assignment tail: nc coupler buffers + out-of-slot counter

	s    State // decoded source state; Nodes reused across calls
	next State // successor accumulator; Nodes reused across calls

	fas    []faultAssignment // fault choices for the current source state
	faSigs []uint32          // (channels, activity, oos) signatures already enumerated

	// reduce switches the fault-assignment repeat-skip to the commutation
	// filter (reducedFaSignature); set only by NewReducedExpander, and only
	// when the configuration is Reducible, which is also the only case
	// that allocates memo. Canonicalize overwrites every encoding's tail
	// with emptyTail (the encoding of zero node records over the empty
	// coupler/out-of-slot tail) and steps chain states onto tailKey, its
	// key form. memo is the fast-forward cache (ffMemoSize direct-mapped
	// entries); ffPath holds the keys of the chain being walked, grown
	// up to the walk's length and then reused.
	reduce    bool
	emptyTail [candBytes]byte
	tailKey   ffKey
	memo      []ffEntry
	ffPath    []ffKey

	// Per-node choice lists, stored flat: node i's choices are
	// choiceBuf[choiceEnd[i-1]:choiceEnd[i]]. choiceWords holds each
	// choice pre-packed into its 20-bit encoding word.
	choiceBuf   []NodeState
	choiceEnd   []int
	choiceWords []uint32
	tailWord    uint32 // the coupler/out-of-slot tail of the current fault assignment

	cand [candBytes]byte // the encoding being assembled; bytes past size stay zero

	buf  []byte   // packed successors, appended back to back
	offs []int    // end offset of each accepted successor in buf
	out  [][]byte // the returned slice headers, rebuilt each call

	// Dedup hash set over successor indexes: cell = generation<<32 |
	// index+1. Stale generations read as empty, so accepting a new
	// source state costs one counter bump instead of a table clear.
	dcells []uint64
	dgen   uint32
}

var _ mc.Expander = (*Expander)(nil)

// NewExpander implements mc.ExpanderModel: the engine calls it once per
// exploration worker.
func (m *Model) NewExpander() mc.Expander { return m.newExpander() }

func (m *Model) newExpander() *Expander {
	size := binarySize(m.cfg.Nodes, m.cfg.Couplers)
	if size > candBytes {
		panic(fmt.Sprintf("model: %d-node encoding (%d bytes) exceeds expander scratch", m.cfg.Nodes, size))
	}
	e := &Expander{
		m:        m,
		size:     size,
		nc:       m.cfg.Couplers,
		tailBits: int32(bitsPerCoupler*m.cfg.Couplers + bitsOOS),
		s:        State{Nodes: make([]NodeState, m.cfg.Nodes)},
		next:     State{Nodes: make([]NodeState, m.cfg.Nodes)},
		dcells:   make([]uint64, 64),
		dgen:     1,
	}
	for c := 0; c < e.nc; c++ {
		e.next.Couplers[c].BufferedKind = FrameNone
	}
	copy(e.emptyTail[:], m.appendBinary(nil, &e.next))
	e.tailKey = loadKey(e.emptyTail[:])
	return e
}

// Successors returns the packed encodings of enc's successor states,
// deduplicated in first-occurrence order — exactly the slice the old
// map-based Model.Successors produced, minus its allocations. The result
// aliases the Expander's scratch.
func (e *Expander) Successors(enc []byte) [][]byte {
	m := e.m
	m.decodeInto(enc, &e.s)
	e.buf = e.buf[:0]
	e.offs = e.offs[:0]
	e.faSigs = e.faSigs[:0]
	e.dgen++
	if e.dgen == 0 {
		clear(e.dcells)
		e.dgen = 1
	}

	nominal, sendersPresent := m.nominalContent(&e.s)
	e.fas = m.appendFaultAssignments(e.fas[:0], &e.s)
	for fi := range e.fas {
		ch, activity := e.prepareChannels(fi, nominal, sendersPresent)
		// Identical (channels, activity, out-of-slot) tuples determine
		// identical choice lists and tails — the whole enumeration
		// would replay byte for byte, so skip it. Trace explanation
		// stays exhaustive (explain below) so rendered fault labels
		// are unchanged.
		sig := faSignature(ch, e.nc, activity, e.next.OutOfSlotUsed)
		if e.reduce {
			// Commutation filter: skip fault assignments whose channel
			// outcomes are equivalent modulo the reduction's observable
			// projection, not just byte-identical (see reducedFaSignature).
			sig = reducedFaSignature(ch, e.nc, activity)
		}
		if seenSig(e.faSigs, sig) {
			continue
		}
		e.faSigs = append(e.faSigs, sig)
		e.prepareChoices(ch, activity)
		e.emitAll(0, 0, encCursor{})
	}

	e.out = e.out[:0]
	start := 0
	for _, end := range e.offs {
		e.out = append(e.out, e.buf[start:end:end])
		start = end
	}
	return e.out
}

// faSignature packs the successor-determining channel outcome of a fault
// assignment: per-coupler contents, the activity bit, and the saturated
// out-of-slot counter.
func faSignature(ch [MaxCouplers]Content, nc int, activity bool, oosUsed uint8) uint32 {
	sig := uint32(0)
	for c := 0; c < nc; c++ {
		sig = sig<<(bitsKind+bitsBufID) | uint32(ch[c].Kind)<<bitsBufID | uint32(ch[c].ID)
	}
	sig <<= bitsOOS + 1
	if activity {
		sig |= 1 << bitsOOS
	}
	return sig | uint32(oosUsed)
}

// seenSig scans the signature list — at most a handful of entries, so a
// linear pass beats any map.
func seenSig(sigs []uint32, sig uint32) bool {
	for _, s := range sigs {
		if s == sig {
			return true
		}
	}
	return false
}

// prepareChannels computes, for fault assignment fi, the channel
// contents, the activity bit, and the successor's coupler/out-of-slot
// tail (everything of e.next except Nodes), including the pre-packed
// tail word.
func (e *Expander) prepareChannels(fi int, nominal Content, sendersPresent bool) ([MaxCouplers]Content, bool) {
	m := e.m
	fa := &e.fas[fi]

	// Channel contents under this fault choice (§4.4): silence blanks the
	// channel, a bad frame replaces it, out-of-slot replays the coupler's
	// buffered frame, and a fault-free coupler relays the nominal frame.
	// Entries at or past e.nc stay zero — inert for every consumer.
	var ch [MaxCouplers]Content
	oosThisStep := uint8(0)
	for c := 0; c < e.nc; c++ {
		switch fa[c] {
		case FaultSilence:
			ch[c] = Content{Kind: FrameNone}
		case FaultBadFrame:
			ch[c] = Content{Kind: FrameBad}
		case FaultOutOfSlot:
			ch[c] = Content{Kind: e.s.Couplers[c].BufferedKind, ID: e.s.Couplers[c].BufferedID}
			oosThisStep++
		default:
			ch[c] = nominal
		}
	}
	// A replayed frame is real channel activity even in a silent slot.
	activity := sendersPresent
	for c := 0; c < e.nc; c++ {
		if fa[c] == FaultOutOfSlot && ch[c].Kind != FrameNone {
			activity = true
		}
	}

	// Coupler buffers track the frame on their channel (§4.4: updated
	// whenever the id on the channel is non-zero).
	for c := 0; c < e.nc; c++ {
		e.next.Couplers[c] = e.s.Couplers[c]
		if ch[c].ID != 0 {
			e.next.Couplers[c] = CouplerState{BufferedID: ch[c].ID, BufferedKind: ch[c].Kind}
		}
	}
	oosUsed := e.s.OutOfSlotUsed
	if m.cfg.MaxOutOfSlot > 0 {
		oosUsed += oosThisStep
		if int(oosUsed) > m.cfg.MaxOutOfSlot {
			oosUsed = uint8(m.cfg.MaxOutOfSlot) // saturate (choice already vetoed)
		}
	}
	e.next.OutOfSlotUsed = oosUsed

	tw := uint32(0)
	for c := 0; c < e.nc; c++ {
		cs := &e.next.Couplers[c]
		if uint32(cs.BufferedKind) >= 1<<bitsKind || uint32(cs.BufferedID) >= 1<<bitsBufID {
			panic(fmt.Sprintf("model: coupler state %+v overflows its fields", *cs))
		}
		tw = tw<<bitsPerCoupler | uint32(cs.BufferedKind)<<bitsBufID | uint32(cs.BufferedID)
	}
	e.tailWord = tw<<bitsOOS | uint32(oosUsed)
	return ch, activity
}

// prepareChoices builds the per-node next-state choice lists for the
// given channel contents, plus each choice's pre-packed 20-bit encoding
// word; freeze/init nodes are nondeterministic.
func (e *Expander) prepareChoices(ch [MaxCouplers]Content, activity bool) {
	m := e.m
	e.choiceBuf = e.choiceBuf[:0]
	e.choiceEnd = e.choiceEnd[:0]
	e.choiceWords = e.choiceWords[:0]
	for i := range e.s.Nodes {
		prev := len(e.choiceBuf)
		e.choiceBuf = m.appendNodeChoices(e.choiceBuf, e.s.Nodes[i], uint8(i+1), ch, activity)
		e.choiceEnd = append(e.choiceEnd, len(e.choiceBuf))
		for j := prev; j < len(e.choiceBuf); j++ {
			e.choiceWords = append(e.choiceWords, nodeWord(&e.choiceBuf[j]))
		}
	}
}

// nodeWord packs one node state into its 20-bit encoding word, in
// appendBinary's field order, with the same range guards bitWriter.put
// enforced per field.
func nodeWord(n *NodeState) uint32 {
	if uint32(n.Phase) >= 1<<bitsPhase || uint32(n.Slot) >= 1<<bitsSlot ||
		uint32(n.Agreed) >= 1<<bitsAgreed || uint32(n.Failed) >= 1<<bitsFailed ||
		uint32(n.Timeout) >= 1<<bitsTimeout {
		panic(fmt.Sprintf("model: node state %+v overflows its fields", *n))
	}
	w := uint32(n.Phase)<<shPhase |
		uint32(n.Slot)<<shSlot |
		uint32(n.Agreed)<<shAgreed |
		uint32(n.Failed)<<shFailed |
		uint32(n.Timeout)
	if n.BigBang {
		w |= recBigBang
	}
	return w
}

// encCursor is the incremental bit-packing state threaded by value
// through the enumeration recursion: position and pending bits of the
// encoding under construction in e.cand. Passing it by value makes each
// recursion level's snapshot free — backtracking costs nothing.
type encCursor struct {
	pos int32  // next byte to write in e.cand
	acc uint64 // pending bits, right-aligned (64-wide: ≤7 pending + a 26-bit 3-coupler tail)
	nb  int32  // number of pending bits (always < 8 between pushes)
}

// push appends a bits-wide word to the encoding, spilling completed
// bytes into e.cand, MSB-first like bitWriter.
func (e *Expander) push(st encCursor, w uint32, bits int32) encCursor {
	acc := st.acc<<bits | uint64(w)
	nb := st.nb + bits
	pos := st.pos
	for nb >= 8 {
		nb -= 8
		e.cand[pos] = byte(acc >> nb)
		pos++
	}
	return encCursor{pos: pos, acc: acc & (1<<nb - 1), nb: nb}
}

// emitAll enumerates the cartesian product of the choice lists — the
// last node varies fastest, matching the serial recursion the checker's
// counts are pinned to — packing each node's pre-computed word as it
// recurses. lo is the start of node's range in choiceBuf.
func (e *Expander) emitAll(node, lo int, st encCursor) {
	if node == len(e.next.Nodes) {
		e.emit(st)
		return
	}
	hi := e.choiceEnd[node]
	for i := lo; i < hi; i++ {
		e.emitAll(node+1, hi, e.push(st, e.choiceWords[i], bitsPerNode))
	}
}

// emit closes the encoding with the fault assignment's tail word and
// keeps it only if new. Duplicates — the common case, since distinct
// choice combinations often coincide — cost one hash probe.
func (e *Expander) emit(st encCursor) {
	st = e.push(st, e.tailWord, e.tailBits)
	if st.nb > 0 {
		e.cand[st.pos] = byte(st.acc << (8 - st.nb)) // flush, zero-padded like bitWriter
	}
	if (len(e.offs)+1)*2 > len(e.dcells) {
		e.growDedup()
	}
	h := hashCand(&e.cand)
	mask := uint64(len(e.dcells) - 1)
	for i := h & mask; ; i = (i + 1) & mask {
		cell := e.dcells[i]
		if uint32(cell>>32) != e.dgen {
			// Empty (or stale-generation) cell: the encoding is new.
			e.dcells[i] = uint64(e.dgen)<<32 | uint64(len(e.offs)+1)
			e.buf = append(e.buf, e.cand[:e.size]...)
			e.offs = append(e.offs, len(e.buf))
			return
		}
		idx := int(uint32(cell)) - 1
		if bytes.Equal(e.buf[idx*e.size:(idx+1)*e.size], e.cand[:e.size]) {
			return
		}
	}
}

// hashCand mixes the fixed-width candidate (zero-padded to candBytes, so
// equal encodings always hash equally) into a table index.
func hashCand(p *[candBytes]byte) uint64 {
	return mix3(binary.LittleEndian.Uint64(p[0:8]),
		binary.LittleEndian.Uint64(p[8:16]),
		binary.LittleEndian.Uint64(p[16:24]))
}

// mix3 hashes three 64-bit words.
func mix3(a, b, c uint64) uint64 {
	h := a*0x9E3779B97F4A7C15 ^ b*0xC2B2AE3D27D4EB4F ^ c*0x165667B19E3779F9
	h ^= h >> 32
	h *= 0xD6E8FEB86659FD93
	return h ^ h>>32
}

// growDedup doubles the dedup table and re-stamps the already-accepted
// successors into it.
func (e *Expander) growDedup() {
	cells := make([]uint64, len(e.dcells)*2)
	mask := uint64(len(cells) - 1)
	for idx := 0; idx < len(e.offs); idx++ {
		var t [candBytes]byte
		copy(t[:], e.buf[idx*e.size:(idx+1)*e.size])
		i := hashCand(&t) & mask
		for uint32(cells[i]>>32) == e.dgen {
			i = (i + 1) & mask
		}
		cells[i] = uint64(e.dgen)<<32 | uint64(idx+1)
	}
	e.dcells = cells
}

// explain searches for a fault/channel assignment under which from steps
// to target — the cold-path twin of Successors used for trace rendering.
// Unlike Successors it enumerates every fault assignment, including ones
// whose channel outcomes coincide, so the first matching assignment —
// and therefore the rendered fault labels — is exactly what the
// pre-dedup enumeration reported.
func (e *Expander) explain(from, target []byte) (StepInfo, bool) {
	m := e.m
	m.decodeInto(from, &e.s)
	e.buf = e.buf[:0]

	nominal, sendersPresent := m.nominalContent(&e.s)
	e.fas = m.appendFaultAssignments(e.fas[:0], &e.s)
	for fi := range e.fas {
		ch, activity := e.prepareChannels(fi, nominal, sendersPresent)
		e.prepareChoices(ch, activity)
		if e.findTarget(0, 0, target) {
			return StepInfo{Faults: e.fas[fi], Channels: ch}, true
		}
	}
	return StepInfo{}, false
}

// findTarget is emitAll's searching twin: it reports whether any choice
// assignment encodes to target. It assembles e.next.Nodes and packs with
// appendBinary — the reference writer — rather than the incremental
// word path, which doubles as an equivalence check between the two
// encoders on every explained trace step.
func (e *Expander) findTarget(node, lo int, target []byte) bool {
	if node == len(e.next.Nodes) {
		start := len(e.buf)
		e.buf = e.m.appendBinary(e.buf, &e.next)
		eq := bytes.Equal(e.buf[start:], target)
		e.buf = e.buf[:start]
		return eq
	}
	hi := e.choiceEnd[node]
	for i := lo; i < hi; i++ {
		e.next.Nodes[node] = e.choiceBuf[i]
		if e.findTarget(node+1, hi, target) {
			return true
		}
	}
	return false
}
