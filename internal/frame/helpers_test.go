package frame

import (
	"ttastar/internal/bitstr"
	"ttastar/internal/cstate"
)

// Functions only the tests call.

// Explicit reports whether the kind carries its C-state explicitly.
func (k Kind) Explicit() bool { return k == KindColdStart || k == KindI || k == KindX }

// emptyCState is the C-state of a node that has none yet.
var emptyCState = cstate.CState{}

// Flip inverts bit i of the wire's bits and drops the cached parse, as
// every mutator of a Wire must.
func (w *Wire) Flip(i int) {
	w.bits.Flip(i)
	w.parsed = 0
}

// Decode parses s afresh as a frame of the expected kind and judges it
// against the receiver's C-state rx, as Wire.Decode does from its cached
// parse; a nil or empty string judges as null. It is the oracle the cached
// path is held to, and what the layer benches time.
func Decode(kind Kind, s *bitstr.String, rx cstate.CState) DecodeResult {
	if s == nil || s.Len() == 0 {
		return DecodeResult{Status: StatusNull}
	}
	r := read(kind, s)
	return r.judge(s, rx)
}

// DecodeForIntegration parses s afresh as a frame a listening node could
// integrate on, as Wire.Integration does from its cached parse.
func DecodeForIntegration(s *bitstr.String) (Frame, bool) {
	if s == nil || s.Len() == 0 {
		return Frame{}, false
	}
	for _, kind := range integrationKinds {
		if r := read(kind, s); r.integrates() {
			return r.integration(s), true
		}
	}
	return Frame{}, false
}
