// Package medl implements the Message Description List: the static TDMA
// schedule every TTP/C node is configured with before start-up. The MEDL
// fixes, for every slot of a round, the owning node, the expected frame
// kind and payload length, and the slot timing.
package medl

import (
	"errors"
	"fmt"
	"time"

	"ttastar/internal/cstate"
	"ttastar/internal/frame"
)

// Slot describes one TDMA slot of the round.
type Slot struct {
	// Owner is the node allowed to transmit in this slot.
	Owner cstate.NodeID `json:"owner"`
	// Kind is the frame kind the owner sends in normal (active) operation.
	Kind frame.Kind `json:"kind"`
	// DataBits is the payload length for N-/X-frame slots.
	DataBits int `json:"dataBits"`
	// Duration is the total slot duration, transmission phase plus
	// inter-frame gap.
	Duration time.Duration `json:"duration"`
	// ActionOffset is when transmission begins within the slot (the
	// "action time"); receivers and guardians centre their acceptance
	// windows on it.
	ActionOffset time.Duration `json:"actionOffset"`
}

// FrameBits returns the on-wire length of the frame this slot carries in
// normal operation.
func (s Slot) FrameBits() int {
	switch s.Kind {
	case frame.KindN:
		return frame.HeaderBits + s.DataBits + frame.CRCBits
	case frame.KindI:
		return frame.MinIFrameBits
	case frame.KindX:
		return frame.HeaderBits + 96 + s.DataBits + frame.CRCBits + frame.DataCRCBits + frame.XFramePadBits
	case frame.KindColdStart:
		return frame.ColdStartBits
	default:
		return 0
	}
}

// Schedule is the cluster's MEDL. All nodes hold identical copies.
type Schedule struct {
	// Slots are the round's slots in order. Slot numbers are 1-based:
	// slot i is Slots[i-1], matching the paper's usage.
	Slots []Slot `json:"slots"`
	// BitRate is the channel bit rate in bits per second.
	BitRate int64 `json:"bitRate"`
	// Precision is the cluster precision Π: the largest tolerated offset
	// between correct clocks. Acceptance windows are ±Precision around the
	// action time.
	Precision time.Duration `json:"precision"`
}

// Validation errors.
var (
	ErrNoSlots         = errors.New("medl: schedule has no slots")
	ErrBadBitRate      = errors.New("medl: bit rate must be positive")
	ErrBadPrecision    = errors.New("medl: precision must be positive")
	ErrSlotOwner       = errors.New("medl: slot owner out of range")
	ErrSlotKind        = errors.New("medl: slot frame kind invalid")
	ErrSlotTooShort    = errors.New("medl: slot too short for its frame")
	ErrActionOffset    = errors.New("medl: action offset leaves no room for precision window")
	ErrDataBits        = errors.New("medl: data bits out of range")
	ErrDuplicateOwner  = errors.New("medl: node owns multiple slots")
	ErrColdStartInMEDL = errors.New("medl: cold-start is not a schedulable frame kind")
)

// Validate checks the schedule for internal consistency. A schedule that
// fails validation must not be used to configure a cluster.
func (s *Schedule) Validate() error {
	if len(s.Slots) == 0 {
		return ErrNoSlots
	}
	if s.BitRate <= 0 {
		return ErrBadBitRate
	}
	if s.Precision <= 0 {
		return ErrBadPrecision
	}
	seen := map[cstate.NodeID]int{}
	for i, sl := range s.Slots {
		n := i + 1
		if sl.Owner == cstate.NoNode || sl.Owner > cstate.MaxNodes {
			return fmt.Errorf("slot %d: %w (%d)", n, ErrSlotOwner, sl.Owner)
		}
		if prev, dup := seen[sl.Owner]; dup {
			return fmt.Errorf("slot %d: %w (also slot %d)", n, ErrDuplicateOwner, prev)
		}
		seen[sl.Owner] = n
		switch sl.Kind {
		case frame.KindN, frame.KindI, frame.KindX:
		case frame.KindColdStart:
			return fmt.Errorf("slot %d: %w", n, ErrColdStartInMEDL)
		default:
			return fmt.Errorf("slot %d: %w (%d)", n, ErrSlotKind, sl.Kind)
		}
		if sl.DataBits < 0 || sl.DataBits > frame.MaxDataBits {
			return fmt.Errorf("slot %d: %w (%d)", n, ErrDataBits, sl.DataBits)
		}
		if sl.ActionOffset < s.Precision {
			return fmt.Errorf("slot %d: %w", n, ErrActionOffset)
		}
		tx := s.TransmissionTime(sl.FrameBits())
		if sl.ActionOffset+tx+s.Precision > sl.Duration {
			return fmt.Errorf("slot %d: %w (needs %v, has %v)",
				n, ErrSlotTooShort, sl.ActionOffset+tx+s.Precision, sl.Duration)
		}
	}
	return nil
}

// NumSlots returns the number of slots per round.
func (s *Schedule) NumSlots() int { return len(s.Slots) }

// Slot returns the 1-based slot. It panics on an out-of-range number, which
// is always a caller bug.
func (s *Schedule) Slot(num int) Slot {
	if num < 1 || num > len(s.Slots) {
		slotOutOfRange(num, len(s.Slots))
	}
	return s.Slots[num-1]
}

// slotOutOfRange panics for Slot. Kept out of line so Slot stays within
// the inliner's budget: it runs several times per slot in every node and
// coupler.
//
//go:noinline
func slotOutOfRange(num, n int) {
	panic(fmt.Sprintf("medl: slot %d out of range [1,%d]", num, n))
}

// NextSlot returns the slot number after num, wrapping to 1 at the end of
// the round (the paper's next_slot shorthand).
func (s *Schedule) NextSlot(num int) int {
	if num >= len(s.Slots) {
		return 1
	}
	return num + 1
}

// OwnerSlot returns the slot number owned by id, or 0 if id owns none.
func (s *Schedule) OwnerSlot(id cstate.NodeID) int {
	for i, sl := range s.Slots {
		if sl.Owner == id {
			return i + 1
		}
	}
	return 0
}

// RoundDuration returns the nominal duration of one TDMA round.
func (s *Schedule) RoundDuration() time.Duration {
	var d time.Duration
	for _, sl := range s.Slots {
		d += sl.Duration
	}
	return d
}

// SlotStart returns the offset of the slot's start within the round.
func (s *Schedule) SlotStart(num int) time.Duration {
	var d time.Duration
	for i := 1; i < num; i++ {
		d += s.Slot(i).Duration
	}
	return d
}

// TransmissionTime returns how long bits bits take on the wire.
func (s *Schedule) TransmissionTime(bits int) time.Duration {
	return time.Duration(int64(bits) * int64(time.Second) / s.BitRate)
}

// StartupTimeout returns node id's listen-timeout: one full round plus the
// start offset of the node's own slot. Unique per node, so at most one node
// leaves listen for cold-start at a time — the slot-count analogue is the
// paper's "node_id + N" initialization.
func (s *Schedule) StartupTimeout(id cstate.NodeID) time.Duration {
	own := s.OwnerSlot(id)
	if own == 0 {
		return 0
	}
	return s.RoundDuration() + s.SlotStart(own)
}

// Clone returns a deep copy of the schedule.
func (s *Schedule) Clone() *Schedule {
	out := &Schedule{BitRate: s.BitRate, Precision: s.Precision}
	out.Slots = make([]Slot, len(s.Slots))
	copy(out.Slots, s.Slots)
	return out
}
