package frame

import (
	"ttastar/internal/bitstr"
	"ttastar/internal/cstate"
)

// Wire is a bit string on the wire together with its parse. Everything a
// receiver reads from a transmission that does not depend on the receiver
// — per expected kind, the structure, the fields and the CRC verdicts, and
// with them the integration decode — is computed at most once and kept
// here, so the couplers, guardians and nodes that see one transmission
// parse it once between them. What is left per receiver is comparing the
// parsed C-state with its own (and, for an N-frame, folding its C-state
// into the CRC register kept after the body).
//
// The parse is a function of the bits alone: every method that changes the
// bits drops it, and a copy of the bits may carry it along.
//
// Ownership: a sender that reuses a Wire for its next frame must not do so
// while any receiver may still judge the previous one. Nodes keep two
// wires and encode into them in turn; anything that has to hold a
// transmission longer keeps a copy (CopyFrom, Clone).
type Wire struct {
	bits bitstr.String
	// parsed has bit kind-1 set when readings[kind-1] holds the parse of
	// bits as that kind, and bit integrated set when integ holds the
	// integration decode: the kind a listening node integrates on, or 0.
	parsed   uint8
	integ    Kind
	readings [KindX]reading
}

// integrated is the parsed bit of the integration decode.
const integrated = 1 << 7

// NewWire returns a wire carrying s. The wire takes s over: s must not be
// changed afterwards.
func NewWire(s *bitstr.String) *Wire { return &Wire{bits: *s} }

// reset empties the bits, keeping their storage, and drops the parse.
func (w *Wire) reset() {
	w.bits.Reset()
	w.parsed = 0
}

// Len returns the number of bits on the wire (0 for a nil wire).
func (w *Wire) Len() int {
	if w == nil {
		return 0
	}
	return w.bits.Len()
}

// Equal reports whether w and o carry the same bits.
func (w *Wire) Equal(o *Wire) bool { return w.bits.Equal(&o.bits) }

// Slice returns a new wire carrying a copy of bits [from, to), with a parse
// of its own: a transmission cut short is a different string.
func (w *Wire) Slice(from, to int) *Wire { return NewWire(w.bits.Slice(from, to)) }

// CopyFrom makes w a copy of o, bits and parse, reusing w's storage.
func (w *Wire) CopyFrom(o *Wire) {
	w.bits.Reset()
	w.bits.Append(&o.bits)
	w.parsed, w.integ, w.readings = o.parsed, o.integ, o.readings
}

// Clone returns an independent copy of w, parse included.
func (w *Wire) Clone() *Wire {
	c := &Wire{}
	c.CopyFrom(w)
	return c
}

// reading returns the parse of the bits as kind (a known kind), reading
// them on first use.
func (w *Wire) reading(kind Kind) *reading {
	bit := uint8(1) << (kind - 1)
	r := &w.readings[kind-1]
	if w.parsed&bit == 0 {
		*r = read(kind, &w.bits)
		w.parsed |= bit
	}
	return r
}

// Decode parses the wire's bits as a frame of the expected kind (the MEDL
// tells receivers what to expect) and judges it against the receiver's
// C-state rx. A nil or empty wire judges as null. The parse is the cached
// one; each call returns a payload of its own.
//
// For N-frames the C-state is implicit: the CRC can only be verified by
// folding the *receiver's* C-state into it, so a CRC mismatch means either
// corruption or C-state disagreement — exactly the ambiguity TTP/C exploits.
func (w *Wire) Decode(kind Kind, rx cstate.CState) DecodeResult {
	if w.Len() == 0 {
		return DecodeResult{Status: StatusNull}
	}
	if kind < KindColdStart || kind > KindX {
		return invalid
	}
	return w.reading(kind).judge(&w.bits, rx)
}

// Integration interprets the wire's bits, from the cached parse, as a
// frame a listening (not-yet-integrated) node could integrate on: a
// cold-start frame, an I-frame, or an X-frame with valid CRCs (both I and X
// carry the C-state explicitly). A listening node has no C-state to
// compare against, so only structure and CRC are checked — which is
// exactly why a replayed or masqueraded frame with internally consistent
// content is indistinguishable from a genuine one during integration (§6
// analysis).
func (w *Wire) Integration() (Frame, bool) {
	if w.Len() == 0 {
		return Frame{}, false
	}
	if w.parsed&integrated == 0 {
		w.integ = 0
		for _, kind := range integrationKinds {
			if w.reading(kind).integrates() {
				w.integ = kind
				break
			}
		}
		w.parsed |= integrated
	}
	if w.integ == 0 {
		return Frame{}, false
	}
	return w.readings[w.integ-1].integration(&w.bits), true
}

// LooksLikeFrame is LooksLikeFrame on the wire's bits.
func (w *Wire) LooksLikeFrame() bool { return w != nil && LooksLikeFrame(&w.bits) }
