package frame

import (
	"ttastar/internal/bitstr"
	"ttastar/internal/cstate"
)

// DecodeForIntegration interprets bits as a frame a listening
// (not-yet-integrated) node could integrate on: a cold-start frame, an
// I-frame, or an X-frame with valid CRCs (both I and X carry the C-state
// explicitly). A listening node has no C-state to compare against, so only
// structure and CRC are checked — which is exactly why a replayed or
// masqueraded frame with internally consistent content is indistinguishable
// from a genuine one during integration (§6 analysis).
func DecodeForIntegration(s *bitstr.String) (Frame, bool) {
	if s == nil || s.Len() == 0 {
		return Frame{}, false
	}
	if res := Decode(KindColdStart, s, emptyCState); res.Status == StatusCorrect {
		return res.Frame, true
	}
	// I-frame: structure plus self-contained CRC only.
	if isIFrame(s) && bitstr.CRC24.Verify(s) {
		return iFrame(s), true
	}
	// X-frame: its CRCs cover the explicit C-state, so a decode against
	// the frame's own C-state succeeding means the CRCs are intact.
	if s.Len() >= minXFrameBits && s.Len() != MinIFrameBits && s.Uint(0, 1) == 1 {
		probe := Decode(KindX, s, emptyCState)
		if probe.Status != StatusInvalid {
			if res := Decode(KindX, s, probe.Frame.CState); res.Status == StatusCorrect {
				return res.Frame, true
			}
		}
	}
	return Frame{}, false
}

// LooksLikeFrame reports whether bits are structurally plausible as some
// TTP/C frame. Listening nodes reset their startup timeout on any such
// activity (the paper's "cold_start or other" condition) even when they
// cannot verify the frame.
func LooksLikeFrame(s *bitstr.String) bool {
	if s == nil {
		return false
	}
	switch {
	case s.Len() == ColdStartBits && s.Uint(0, 1) == 1:
		return true
	case s.Len() == MinIFrameBits && s.Uint(0, 1) == 1:
		return true
	case s.Len() >= MinNFrameBits && s.Uint(0, 1) == 0:
		return true
	default:
		return false
	}
}

var emptyCState = cstate.CState{}
