package model

// The packed binary state codec. Model states are tuples of small enums
// and saturating counters, so a fixed-width bit layout per field packs a
// full state into ceil((20·N + 12 + 8)/8) bytes — 13 bytes for the
// paper's 4-node cluster. This is the canonical encoding the checker
// interns as its visited-set key. The byte-per-field layout it replaced
// lives on only in codec_test.go (EncodeString/DecodeString), as the
// codec oracle of the round-trip tests.
//
// Per-field widths (all ranges enforced by Config validation):
//
//	node:    phase 4 | bigbang 1 | slot 3 | agreed 4 | failed 4 | timeout 4  = 20 bits
//	coupler: kind 3 | id 3                                                   =  6 bits
//	tail:    out-of-slot-used 8                                              =  8 bits

import (
	"fmt"

	"ttastar/internal/mc"
)

// Field widths of the packed layout.
const (
	bitsPhase   = 4 // phases 1..9
	bitsBigBang = 1
	bitsSlot    = 3 // slots 0..7 (Nodes <= 7)
	bitsAgreed  = 4 // counters saturate at 15
	bitsFailed  = 4
	bitsTimeout = 4 // listen timeout <= 2*Nodes = 14
	bitsKind    = 3 // frame kinds 1..5
	bitsBufID   = 3 // buffered sender slot 0..7
	bitsOOS     = 8 // out-of-slot budget is a uint8

	bitsPerNode    = bitsPhase + bitsBigBang + bitsSlot + bitsAgreed + bitsFailed + bitsTimeout
	bitsPerCoupler = bitsKind + bitsBufID
)

// A node's fields inside its 20-bit record word, phase in the top bits:
// the shift of each field and, for the fields the silent-chain stepper
// rewrites, its mask.
const (
	shFailed  = bitsTimeout
	shAgreed  = shFailed + bitsFailed
	shSlot    = shAgreed + bitsAgreed
	shBigBang = shSlot + bitsSlot
	shPhase   = shBigBang + bitsBigBang

	recTimeout = 1<<bitsTimeout - 1
	recFailed  = (1<<bitsFailed - 1) << shFailed
	recAgreed  = (1<<bitsAgreed - 1) << shAgreed
	recSlot    = (1<<bitsSlot - 1) << shSlot
	recBigBang = 1 << shBigBang
)

// binarySize is the fixed encoding width in bytes for an n-node, c-coupler
// model.
func binarySize(n, c int) int {
	return (bitsPerNode*n + bitsPerCoupler*c + bitsOOS + 7) / 8
}

// bitWriter packs values MSB-first into a byte slice.
type bitWriter struct {
	buf []byte
	acc uint64
	n   uint
}

func (w *bitWriter) put(v uint64, bits uint) {
	if v >= 1<<bits {
		panic(fmt.Sprintf("model: value %d overflows %d-bit field", v, bits))
	}
	w.acc = w.acc<<bits | v
	w.n += bits
	for w.n >= 8 {
		w.n -= 8
		w.buf = append(w.buf, byte(w.acc>>w.n))
	}
}

func (w *bitWriter) flush() {
	if w.n > 0 {
		w.buf = append(w.buf, byte(w.acc<<(8-w.n)))
		w.n = 0
	}
}

// bitReader unpacks values MSB-first from a byte slice.
type bitReader struct {
	buf []byte
	pos int
	acc uint64
	n   uint
}

func (r *bitReader) get(bits uint) uint64 {
	for r.n < bits {
		r.acc = r.acc<<8 | uint64(r.buf[r.pos])
		r.pos++
		r.n += 8
	}
	r.n -= bits
	return (r.acc >> r.n) & (1<<bits - 1)
}

// EncodeBinary packs s into the fixed-width binary layout. Equal states
// encode to equal byte strings, so the result is usable directly as the
// checker's interned visited-set key.
func (m *Model) EncodeBinary(s State) mc.State {
	return mc.State(m.appendBinary(make([]byte, 0, binarySize(m.cfg.Nodes, m.cfg.Couplers)), &s))
}

// appendBinary packs s onto dst — the allocation-free form of
// EncodeBinary the Expander's hot path packs successors with.
func (m *Model) appendBinary(dst []byte, s *State) []byte {
	w := bitWriter{buf: dst}
	for _, n := range s.Nodes {
		bb := uint64(0)
		if n.BigBang {
			bb = 1
		}
		w.put(uint64(n.Phase), bitsPhase)
		w.put(bb, bitsBigBang)
		w.put(uint64(n.Slot), bitsSlot)
		w.put(uint64(n.Agreed), bitsAgreed)
		w.put(uint64(n.Failed), bitsFailed)
		w.put(uint64(n.Timeout), bitsTimeout)
	}
	for _, c := range s.Couplers[:m.cfg.Couplers] {
		w.put(uint64(c.BufferedKind), bitsKind)
		w.put(uint64(c.BufferedID), bitsBufID)
	}
	w.put(uint64(s.OutOfSlotUsed), bitsOOS)
	w.flush()
	return w.buf
}

// DecodeBinary is the inverse of EncodeBinary.
func (m *Model) DecodeBinary(enc mc.State) State {
	var s State
	m.decodeInto([]byte(enc), &s)
	return s
}

// decodeInto is the scratch-reusing form of DecodeBinary: it unpacks enc
// into s, reusing s.Nodes when it has the capacity.
func (m *Model) decodeInto(enc []byte, s *State) {
	if len(enc) != binarySize(m.cfg.Nodes, m.cfg.Couplers) {
		panic(fmt.Sprintf("model: binary state is %d bytes, want %d", len(enc), binarySize(m.cfg.Nodes, m.cfg.Couplers)))
	}
	r := bitReader{buf: enc}
	if cap(s.Nodes) < m.cfg.Nodes {
		s.Nodes = make([]NodeState, m.cfg.Nodes)
	}
	s.Nodes = s.Nodes[:m.cfg.Nodes]
	for i := range s.Nodes {
		s.Nodes[i] = NodeState{
			Phase:   Phase(r.get(bitsPhase)),
			BigBang: r.get(bitsBigBang) == 1,
			Slot:    uint8(r.get(bitsSlot)),
			Agreed:  uint8(r.get(bitsAgreed)),
			Failed:  uint8(r.get(bitsFailed)),
			Timeout: uint8(r.get(bitsTimeout)),
		}
	}
	for c := 0; c < m.cfg.Couplers; c++ {
		s.Couplers[c] = CouplerState{
			BufferedKind: FrameKind(r.get(bitsKind)),
			BufferedID:   uint8(r.get(bitsBufID)),
		}
	}
	for c := m.cfg.Couplers; c < MaxCouplers; c++ {
		s.Couplers[c] = CouplerState{}
	}
	s.OutOfSlotUsed = uint8(r.get(bitsOOS))
}

// phaseBits reads node i's phase field straight out of a packed encoding
// without decoding the rest of the state. The phase is the leading 4-bit
// field of each 20-bit node record, so its bit offset modulo 8 is always
// 0 or 4 — the field never straddles a byte boundary.
func phaseBits(enc []byte, i int) uint8 {
	bit := bitsPerNode * i
	b := enc[bit>>3]
	if bit&7 == 0 {
		return b >> 4
	}
	return b & 0x0F
}
