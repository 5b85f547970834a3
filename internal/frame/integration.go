package frame

import "ttastar/internal/bitstr"

// integrationKinds are the kinds a listening node tries, in order. An
// X-frame's CRCs cover its explicit C-state, so intact CRCs are all a node
// without a C-state of its own can check.
var integrationKinds = [...]Kind{KindColdStart, KindI, KindX}

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
