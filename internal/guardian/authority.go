// Package guardian implements TTP/C bus guardians: the per-node local
// guardians of the bus topology and the central guardians (star couplers)
// of the star topology, at the four authority levels the paper models in
// §4.1 — passive, time windows, small shifting, full shifting — together
// with the §4.4 coupler fault modes and the forwarding-buffer accounting
// behind the §6 analysis.
package guardian

import "fmt"

// Authority is a star coupler's feature set (§4.1). Each level includes the
// previous one's abilities.
type Authority uint8

// The four coupler authority levels.
const (
	// AuthorityPassive relays signals untouched: it can neither stop
	// frames nor shift them in time.
	AuthorityPassive Authority = iota + 1
	// AuthorityTimeWindows can open and close bus write access per slot
	// but cannot shift frames in time.
	AuthorityTimeWindows
	// AuthoritySmallShift can additionally make slight adjustments to
	// frame timing (shift a frame slightly to fit its window) and re-drive
	// the signal, which requires a small leaky-bucket buffer.
	AuthoritySmallShift
	// AuthorityFullShift can additionally buffer entire frames and send
	// them out at a later time — the capability the paper shows to be
	// dangerous.
	AuthorityFullShift
)

// String returns the paper's name for the authority level.
func (a Authority) String() string {
	switch a {
	case AuthorityPassive:
		return "passive"
	case AuthorityTimeWindows:
		return "time windows"
	case AuthoritySmallShift:
		return "small shifting"
	case AuthorityFullShift:
		return "full shifting"
	default:
		return fmt.Sprintf("Authority(%d)", uint8(a))
	}
}

// CanReshape reports whether the coupler can adjust frame timing/signal.
func (a Authority) CanReshape() bool { return a >= AuthoritySmallShift }

// CanBufferFrames reports whether the coupler can hold complete frames —
// the precondition for the out-of-slot fault mode.
func (a Authority) CanBufferFrames() bool { return a == AuthorityFullShift }

// FaultMode is a star coupler fault (§4.4).
type FaultMode uint8

// Coupler fault modes.
const (
	// FaultNone is error-free operation.
	FaultNone FaultMode = iota + 1
	// FaultSilence replaces any frame sent on the coupler's channel by
	// silence.
	FaultSilence
	// FaultBadFrame places a bad frame (noise) on the bus, whether or not
	// a frame was sent.
	FaultBadFrame
	// FaultOutOfSlot re-sends the last frame received by the coupler in a
	// later slot. It can occur only on full-shifting couplers.
	FaultOutOfSlot
)

// String returns the paper's name for the fault mode.
func (f FaultMode) String() string {
	switch f {
	case FaultNone:
		return "none"
	case FaultSilence:
		return "silence"
	case FaultBadFrame:
		return "bad_frame"
	case FaultOutOfSlot:
		return "out_of_slot"
	default:
		return fmt.Sprintf("FaultMode(%d)", uint8(f))
	}
}

// PossibleFor reports whether the fault mode can arise on a coupler with
// the given authority: out-of-slot replay requires full-frame buffering,
// everything else can happen to any coupler (§4.4).
func (f FaultMode) PossibleFor(a Authority) bool {
	if f == FaultOutOfSlot {
		return a.CanBufferFrames()
	}
	return true
}
