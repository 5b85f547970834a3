// Package cstate implements the TTP/C controller state (C-state): the
// distributed state every integrated node must agree on. Frames carry the
// C-state either explicitly (I-/X-frames) or implicitly, by mixing it into
// the frame CRC (N-frames), so that any C-state disagreement between sender
// and receiver makes the frame check as incorrect.
package cstate

import (
	"fmt"
	"math/bits"

	"ttastar/internal/bitstr"
)

// NodeID identifies a cluster node. IDs are 1-based; 0 means "no node".
type NodeID uint8

// NoNode is the zero NodeID, used where no sender exists (e.g. silence).
const NoNode NodeID = 0

// String formats the id as the letters the paper uses (1→A, 2→B, …).
func (id NodeID) String() string {
	if id == NoNode {
		return "-"
	}
	if id <= 26 {
		return string(rune('A' + id - 1))
	}
	return fmt.Sprintf("N%d", uint8(id))
}

// Membership is the group-membership vector: bit i-1 set means node i is a
// member. TTP/C limits clusters well below 32 nodes.
type Membership uint32

// MaxNodes is the largest NodeID a Membership vector can represent.
const MaxNodes = 32

// With returns the vector with node id added.
func (m Membership) With(id NodeID) Membership {
	if id == NoNode || id > MaxNodes {
		return m
	}
	return m | 1<<(id-1)
}

// Without returns the vector with node id removed.
func (m Membership) Without(id NodeID) Membership {
	if id == NoNode || id > MaxNodes {
		return m
	}
	return m &^ (1 << (id - 1))
}

// Contains reports whether node id is a member.
func (m Membership) Contains(id NodeID) bool {
	if id == NoNode || id > MaxNodes {
		return false
	}
	return m&(1<<(id-1)) != 0
}

// Count returns the number of members.
func (m Membership) Count() int { return bits.OnesCount32(uint32(m)) }

// IDs returns the member ids in ascending order.
func (m Membership) IDs() []NodeID {
	out := make([]NodeID, 0, m.Count())
	for id := NodeID(1); id <= MaxNodes; id++ {
		if m.Contains(id) {
			out = append(out, id)
		}
	}
	return out
}

// String renders the membership as a set of node letters.
func (m Membership) String() string {
	s := "{"
	for i, id := range m.IDs() {
		if i > 0 {
			s += ","
		}
		s += id.String()
	}
	return s + "}"
}

// Field widths of the encoded C-state. The full C-state is the 96-bit field
// X-frames carry; the compact form is the 48-bit field of minimum I-frames
// (16-bit time + 16-bit MEDL position + 16-bit membership, per the paper's
// §6 itemization of the 76-bit I-frame).
const (
	GlobalTimeBits  = 16
	RoundSlotBits   = 16
	ClusterModeBits = 16
	DMCBits         = 16
	MembershipBits  = 32

	FullBits    = GlobalTimeBits + RoundSlotBits + ClusterModeBits + DMCBits + MembershipBits // 96
	CompactBits = GlobalTimeBits + RoundSlotBits + 16                                         // 48
)

// CState is the controller state.
type CState struct {
	GlobalTime  uint16 // macrotick counter of the global time base
	RoundSlot   uint16 // current MEDL position (round slot)
	ClusterMode uint16 // active cluster operating mode
	DMC         uint16 // deferred pending mode change
	Membership  Membership
}

// Equal reports whether two C-states agree exactly.
func (c CState) Equal(o CState) bool { return c == o }

// AppendFull appends the 96-bit explicit encoding to s.
func (c CState) AppendFull(s *bitstr.String) *bitstr.String {
	s.AppendUint(uint64(c.GlobalTime), GlobalTimeBits)
	s.AppendUint(uint64(c.RoundSlot), RoundSlotBits)
	s.AppendUint(uint64(c.ClusterMode), ClusterModeBits)
	s.AppendUint(uint64(c.DMC), DMCBits)
	s.AppendUint(uint64(c.Membership), MembershipBits)
	return s
}

// FeedFull feeds the full encoding of c, the bits AppendFull appends,
// into a running CRC. Implicit-C-state checksums use it to continue a
// frame's register over the C-state without building the covered string.
func (c CState) FeedFull(r bitstr.CRC) bitstr.CRC {
	return r.Uint(uint64(c.GlobalTime)<<48|uint64(c.RoundSlot)<<32|uint64(c.ClusterMode)<<16|uint64(c.DMC),
		GlobalTimeBits+RoundSlotBits+ClusterModeBits+DMCBits).
		Uint(uint64(c.Membership), MembershipBits)
}

// DecodeFull reads a 96-bit C-state from s at offset.
func DecodeFull(s *bitstr.String, offset int) CState {
	return CState{
		GlobalTime:  uint16(s.Uint(offset, GlobalTimeBits)),
		RoundSlot:   uint16(s.Uint(offset+16, RoundSlotBits)),
		ClusterMode: uint16(s.Uint(offset+32, ClusterModeBits)),
		DMC:         uint16(s.Uint(offset+48, DMCBits)),
		Membership:  Membership(s.Uint(offset+64, MembershipBits)),
	}
}

// AppendCompact appends the 48-bit I-frame encoding (time, MEDL position,
// low 16 membership bits) to s.
func (c CState) AppendCompact(s *bitstr.String) *bitstr.String {
	s.AppendUint(uint64(c.GlobalTime), GlobalTimeBits)
	s.AppendUint(uint64(c.RoundSlot), RoundSlotBits)
	s.AppendUint(uint64(c.Membership&0xFFFF), 16)
	return s
}

// DecodeCompact reads a 48-bit compact C-state from s at offset. Fields the
// compact form does not carry are zero.
func DecodeCompact(s *bitstr.String, offset int) CState {
	return CState{
		GlobalTime: uint16(s.Uint(offset, GlobalTimeBits)),
		RoundSlot:  uint16(s.Uint(offset+16, RoundSlotBits)),
		Membership: Membership(s.Uint(offset+32, 16)),
	}
}

// CompactEqual compares only the fields the compact encoding carries; a
// receiver of a minimum I-frame can check no more than this.
func (c CState) CompactEqual(o CState) bool {
	return c.GlobalTime == o.GlobalTime &&
		c.RoundSlot == o.RoundSlot &&
		c.Membership&0xFFFF == o.Membership&0xFFFF
}

// String renders the C-state compactly for traces.
func (c CState) String() string {
	return fmt.Sprintf("t=%d slot=%d mode=%d mem=%v", c.GlobalTime, c.RoundSlot, c.ClusterMode, c.Membership)
}
