package model

// Expander is the allocation-free successor generator behind mc's hot
// path. Each exploration worker owns one; every piece of working storage
// a single expansion needs — the per-node choice words, the successor
// accumulator, the packed output buffer, the dedup index and two lookup
// tables — lives in the Expander and is reused call over call, so a
// steady-state Successors call performs no heap allocation at all
// (asserted by the AllocsPerRun regression tests).
//
// Successors never decodes its input. It reads each node's 20-bit
// record word straight out of the packed bytes, derives the slot's
// nominal frame (§4.3 frame_sent) from the words, and draws everything
// else from two per-Expander tables that memoize small pure functions
// the enumeration would otherwise recompute millions of times:
//
//   - The outcome table maps (the source's coupler/out-of-slot tail, the
//     nominal content, whether anyone sent) to the fault menu's distinct
//     channel outcomes: per outcome the channel contents, the activity
//     bit and the successor's pre-packed tail word, in enumeration order.
//     Fault assignments whose outcome repeats (a silenced empty channel
//     IS the empty channel; a replay can equal the nominal relay) would
//     replay the same successor set, so a fill keeps each outcome once —
//     byte-identical ones in oracle mode, ones equal under the
//     reduction's projection (reducedFaSignature) in reduced mode. Under
//     reduction every canonical source has the empty tail, so only a
//     handful of entries ever fill.
//   - The choice table maps (node record word, own id, channel outcome)
//     to the node's next-state choices, each pre-packed into the 20 bits
//     it contributes to the successor wherever it lands. On the reduced
//     6-node check 24.2 M per-node choice computations draw on only 4,296
//     distinct inputs.
//
// Both are direct-mapped and sized to stay cache-resident; a miss fills
// its entry from the direct path (decodeInto, appendFaultAssignments,
// prepareChannels, appendNodeChoices, nodeWord) and overwrites whatever
// the slot held. They are pure caches — a result never depends on what a
// table holds.
//
// Successors are assembled in key form (ffKey, the encoding as three
// big-endian words, where every field has a fixed bit position). Per
// outcome, the tail and the record of every node with a single choice
// are or-ed into a base key once; the cartesian recursion then runs over
// the nondeterministic nodes only, or-ing in each choice's record placed
// at its node's position and passing the key by value. Duplicate
// detection is a generation-stamped open-addressing probe over int32
// indexes into the accepted keys — no sorted-insert memmove, no per-call
// clearing — and the accepted keys are written out once at the end as
// fixed-width encodings, so successor i lives at buf[i*size:(i+1)*size].
//
// Scratch ownership rules (see DESIGN.md "hot path & memory layout"):
// the returned [][]byte and the encodings it points into belong to the
// Expander and are valid only until the next Successors or explain call.
// An Expander is not safe for concurrent use; Model.NewExpander mints an
// independent one per worker.

import (
	"bytes"
	"fmt"
	"slices"

	"ttastar/internal/mc"
)

// candBytes bounds a packed encoding: binarySize(7, MaxCouplers) = 21 for
// the largest configurable cluster, padded to the three whole words of
// its key form (ffKey).
const candBytes = 24

// Expander generates packed successor encodings against reusable
// per-worker scratch. Zero value is not usable; obtain one from
// Model.NewExpander.
type Expander struct {
	m        *Model
	size     int   // binarySize(nodes, couplers): every emitted encoding is this wide
	nc       int   // the model's coupler count
	tailBits int32 // width of the per-fault-assignment tail: nc coupler buffers + out-of-slot counter

	s    State // decoded source state of a table fill or explain; Nodes reused across calls
	next State // successor accumulator of a table fill or explain; Nodes reused across calls

	fas    []faultAssignment // fault choices for the state being filled or explained
	faSigs []uint32          // (channels, activity, oos) signatures already kept by a fill

	// The two lookup tables (see the header): outcomes has
	// outcomeTableSize entries, choices choiceTableSize. The first
	// Successors call allocates them, so an expander that only explains
	// or canonicalizes (Model's pooled ones, a dist coordinator's) never
	// holds them.
	outcomes []outcomeEntry
	choices  []choiceEntry

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

	// picks[:npicks] holds the choices of each nondeterministic node
	// under the outcome being enumerated, in node order, placed at the
	// node's record position.
	picks  [maxNodes]pick
	npicks int

	// explain's per-node choice lists, stored flat: node i's choices are
	// choiceBuf[choiceEnd[i-1]:choiceEnd[i]]. A choice-table fill borrows
	// choiceBuf as scratch.
	choiceBuf []NodeState
	choiceEnd []int

	keys []ffKey  // accepted successors in key form, in first-occurrence order
	buf  []byte   // their packed encodings, back to back, size bytes each
	out  [][]byte // the returned slice headers, rebuilt each call

	// Dedup hash set over successor indexes: cell = generation<<32 |
	// index+1. Stale generations read as empty, so accepting a new
	// source state costs one counter bump instead of a table clear.
	dcells []uint64
	dgen   uint32
}

// pick is one node's choices under an outcome, each a key holding only
// that choice's record word at the node's position.
type pick struct {
	n    int
	recs [maxChoices]ffKey
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
	if len(enc) != e.size {
		panic(fmt.Sprintf("model: binary state is %d bytes, want %d", len(enc), e.size))
	}
	if e.outcomes == nil {
		e.outcomes = make([]outcomeEntry, outcomeTableSize)
		e.choices = make([]choiceEntry, choiceTableSize)
	}
	k := loadKey(enc)
	n := len(e.next.Nodes)
	var words [maxNodes]uint32
	for i := 0; i < n; i++ {
		words[i] = k.record(i)
	}
	nominal, sendersPresent := e.m.nominalFromWords(words[:n])
	ent := e.outcomesFor(enc, k.field(bitsPerNode*n, int(e.tailBits)), nominal, sendersPresent)

	e.keys = e.keys[:0]
	e.dgen++
	if e.dgen == 0 {
		clear(e.dcells)
		e.dgen = 1
	}
	for oi := range ent.n {
		o := &ent.outs[oi]
		// Deterministic nodes and the tail are the same in every
		// successor of this outcome: or them into the base key once, and
		// recurse over the nondeterministic nodes only.
		var base ffKey
		base.orField(bitsPerNode*n, int(e.tailBits), o.tail)
		e.npicks = 0
		for i := 0; i < n; i++ {
			ce := e.choicesFor(words[i], uint8(i+1), o)
			if ce.n == 1 {
				base.orRecord(i, ce.words[0])
				continue
			}
			p := &e.picks[e.npicks]
			e.npicks++
			p.n = int(ce.n)
			for j := 0; j < p.n; j++ {
				p.recs[j] = ffKey{}
				p.recs[j].orRecord(i, ce.words[j])
			}
		}
		e.emitAll(0, base)
	}

	// Each key writes all candBytes of its form; the bytes past size are
	// zero and overwritten by the next key, so buf carries that slack.
	size := e.size
	need := len(e.keys)*size + candBytes
	e.buf = slices.Grow(e.buf[:0], need)[:need]
	e.out = e.out[:0]
	for i, k := range e.keys {
		k.storeAll(e.buf[i*size:])
		e.out = append(e.out, e.buf[i*size:(i+1)*size:(i+1)*size])
	}
	return e.out
}

// maxNodes bounds Config.Nodes: node slots are 3 bits.
const maxNodes = 1<<bitsSlot - 1

// The lookup tables' sizes, fixed so they stay cache-resident: 2^13
// 32-byte choice entries (256 KB) hold the reduced 6-node check's 4,296
// distinct choice inputs with room to spare, and 2^8 outcome entries
// (45 KB) hold its handful of outcome inputs and the few hundred of the
// paper's full-shifting oracle searches.
const (
	choiceTableBits  = 13
	choiceTableSize  = 1 << choiceTableBits
	outcomeTableBits = 8
	outcomeTableSize = 1 << outcomeTableBits
)

// tableSlot maps a table key to its direct-mapped slot in a table of
// 1<<bits entries.
func tableSlot(key uint64, bits uint) uint64 { return key * 0x9E3779B97F4A7C15 >> (64 - bits) }

// outcome is one distinct channel outcome of the fault menu.
type outcome struct {
	ch       [MaxCouplers]Content
	activity bool
	chKey    uint32 // channelKey(ch, activity): the choice table's channel input
	tail     uint32 // the successor's pre-packed coupler/out-of-slot tail
}

// outcomeEntry holds the distinct outcomes for one outcomeKey, in
// enumeration order. A key is never zero (every frame kind is), so a
// zero entry is empty.
type outcomeEntry struct {
	key  uint64
	n    int
	outs [1 + len(injectableFaults)*MaxCouplers]outcome
}

// outcomeKey packs an outcome-table input: the source's tail bits, the
// nominal content and the sendersPresent bit.
func outcomeKey(tail uint32, nominal Content, sendersPresent bool) uint64 {
	key := uint64(tail) | uint64(nominal.Kind)<<32 | uint64(nominal.ID)<<(32+bitsKind)
	if sendersPresent {
		key |= 1 << (32 + bitsKind + bitsBufID)
	}
	return key
}

// outcomesFor returns the outcome entry of the source enc, whose tail
// bits, nominal content and sendersPresent bit are given, filling it on
// a miss.
func (e *Expander) outcomesFor(enc []byte, tail uint32, nominal Content, sendersPresent bool) *outcomeEntry {
	key := outcomeKey(tail, nominal, sendersPresent)
	ent := &e.outcomes[tableSlot(key, outcomeTableBits)]
	if ent.key != key {
		e.fillOutcomes(ent, key, enc, nominal, sendersPresent)
	}
	return ent
}

// fillOutcomes enumerates the fault menu of the source enc the direct
// way and keeps each assignment whose outcome has not been kept yet:
// identical (channels, activity, out-of-slot) tuples determine identical
// choice lists and tails, so the whole enumeration would replay byte for
// byte. Trace explanation stays exhaustive (explain below) so rendered
// fault labels are unchanged.
func (e *Expander) fillOutcomes(ent *outcomeEntry, key uint64, enc []byte, nominal Content, sendersPresent bool) {
	m := e.m
	m.decodeInto(enc, &e.s)
	e.fas = m.appendFaultAssignments(e.fas[:0], &e.s)
	e.faSigs = e.faSigs[:0]
	ent.key, ent.n = key, 0
	for fi := range e.fas {
		ch, activity := e.prepareChannels(fi, nominal, sendersPresent)
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
		ent.outs[ent.n] = outcome{ch: ch, activity: activity, chKey: channelKey(ch, e.nc, activity), tail: e.nextTail()}
		ent.n++
	}
}

// maxChoices bounds a node's next-state choices: freeze with the host
// states enabled has the most (freeze, init, await, test).
const maxChoices = 4

// choiceEntry holds one node's next-state choices pre-packed into their
// 20-bit encoding words. A key is never zero (own ids start at 1), so a
// zero entry is empty.
type choiceEntry struct {
	key   uint64
	n     uint32
	words [maxChoices]uint32
}

// choicesFor returns the choice entry of a node with record word w and
// id own under outcome o, filling it on a miss.
func (e *Expander) choicesFor(w uint32, own uint8, o *outcome) *choiceEntry {
	key := choiceKey(w, own, o.chKey)
	ent := &e.choices[tableSlot(key, choiceTableBits)]
	if ent.key != key {
		e.fillChoices(ent, key, w, own, o)
	}
	return ent
}

// choiceKey packs a choice-table input: the node's record word, its own
// id and the outcome's channelKey.
func choiceKey(w uint32, own uint8, chKey uint32) uint64 {
	return uint64(w) | uint64(own)<<bitsPerNode | uint64(chKey)<<(bitsPerNode+bitsSlot)
}

// fillChoices computes the choices the direct way and packs them.
func (e *Expander) fillChoices(ent *choiceEntry, key uint64, w uint32, own uint8, o *outcome) {
	e.choiceBuf = e.m.appendNodeChoices(e.choiceBuf[:0], nodeOfWord(w), own, o.ch, o.activity)
	if len(e.choiceBuf) > len(ent.words) {
		panic(fmt.Sprintf("model: %d next-state choices exceed the choice table's %d", len(e.choiceBuf), len(ent.words)))
	}
	ent.key, ent.n = key, uint32(len(e.choiceBuf))
	for j := range e.choiceBuf {
		ent.words[j] = nodeWord(&e.choiceBuf[j])
	}
}

// channelKey packs the per-coupler channel contents and the activity
// bit.
func channelKey(ch [MaxCouplers]Content, nc int, activity bool) uint32 {
	key := uint32(0)
	for c := 0; c < nc; c++ {
		key = key<<(bitsKind+bitsBufID) | uint32(ch[c].Kind)<<bitsBufID | uint32(ch[c].ID)
	}
	key <<= 1
	if activity {
		key |= 1
	}
	return key
}

// faSignature packs the successor-determining channel outcome of a fault
// assignment: per-coupler contents, the activity bit, and the saturated
// out-of-slot counter.
func faSignature(ch [MaxCouplers]Content, nc int, activity bool, oosUsed uint8) uint32 {
	return channelKey(ch, nc, activity)<<bitsOOS | uint32(oosUsed)
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
// tail (everything of e.next except Nodes).
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
	return ch, activity
}

// nextTail packs e.next's coupler/out-of-slot tail into its encoding
// word, with the same range guards bitWriter.put enforces per field.
func (e *Expander) nextTail() uint32 {
	tw := uint32(0)
	for c := 0; c < e.nc; c++ {
		cs := &e.next.Couplers[c]
		if uint32(cs.BufferedKind) >= 1<<bitsKind || uint32(cs.BufferedID) >= 1<<bitsBufID {
			panic(fmt.Sprintf("model: coupler state %+v overflows its fields", *cs))
		}
		tw = tw<<bitsPerCoupler | uint32(cs.BufferedKind)<<bitsBufID | uint32(cs.BufferedID)
	}
	return tw<<bitsOOS | uint32(e.next.OutOfSlotUsed)
}

// prepareChoices builds the per-node next-state choice lists for the
// given channel contents; freeze/init nodes are nondeterministic.
func (e *Expander) prepareChoices(ch [MaxCouplers]Content, activity bool) {
	m := e.m
	e.choiceBuf = e.choiceBuf[:0]
	e.choiceEnd = e.choiceEnd[:0]
	for i := range e.s.Nodes {
		e.choiceBuf = m.appendNodeChoices(e.choiceBuf, e.s.Nodes[i], uint8(i+1), ch, activity)
		e.choiceEnd = append(e.choiceEnd, len(e.choiceBuf))
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

// nodeOfWord unpacks a 20-bit record word: the inverse of nodeWord.
func nodeOfWord(w uint32) NodeState {
	return NodeState{
		Phase:   Phase(w >> shPhase),
		BigBang: w&recBigBang != 0,
		Slot:    uint8(w & recSlot >> shSlot),
		Agreed:  uint8(w & recAgreed >> shAgreed),
		Failed:  uint8(w & recFailed >> shFailed),
		Timeout: uint8(w & recTimeout),
	}
}

// emitAll enumerates the cartesian product of the picked choices over
// the base key k — the last node varies fastest, matching the serial
// recursion the checker's counts are pinned to — or-ing each placed
// record into the key as it recurses. The key travels by value, so
// backtracking costs nothing.
func (e *Expander) emitAll(pi int, k ffKey) {
	if pi == e.npicks {
		e.emit(k)
		return
	}
	p := &e.picks[pi]
	for j := 0; j < p.n; j++ {
		r := &p.recs[j]
		e.emitAll(pi+1, ffKey{k[0] | r[0], k[1] | r[1], k[2] | r[2]})
	}
}

// emit keeps the complete successor key k only if new. Duplicates — the
// common case, since distinct choice combinations often coincide — cost
// one hash probe.
func (e *Expander) emit(k ffKey) {
	if (len(e.keys)+1)*2 > len(e.dcells) {
		e.growDedup()
	}
	mask := uint64(len(e.dcells) - 1)
	for i := k.hash() & mask; ; i = (i + 1) & mask {
		cell := e.dcells[i]
		if uint32(cell>>32) != e.dgen {
			// Empty (or stale-generation) cell: the successor is new.
			e.dcells[i] = uint64(e.dgen)<<32 | uint64(len(e.keys)+1)
			e.keys = append(e.keys, k)
			return
		}
		if e.keys[uint32(cell)-1] == k {
			return
		}
	}
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
	for idx, k := range e.keys {
		i := k.hash() & mask
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
// appendBinary — the reference writer — rather than the table-driven
// key path, which doubles as an equivalence check between the two
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
