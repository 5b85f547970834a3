package guardian

import (
	"time"

	"ttastar/internal/medl"
)

// DefaultLineEncodingBits is the paper's le: the number of bits a guardian
// must buffer for line-encoding reasons before it can start re-driving a
// frame (§6 uses le = 4).
const DefaultLineEncodingBits = 4

// ForwardLatency returns the systematic forwarding delay a central guardian
// of the given authority adds on schedule s: zero for a passive hub, the
// le-bit cut-through latency otherwise. Nodes configure this as their MEDL
// delay-correction term.
func ForwardLatency(a Authority, s *medl.Schedule, le int) time.Duration {
	if a == AuthorityPassive {
		return 0
	}
	if le == 0 {
		le = DefaultLineEncodingBits
	}
	return s.TransmissionTime(le)
}

// PeakOccupancy returns the peak forwarding-buffer occupancy, in bits, of a
// cut-through forwarder that must hold thresholdBits before it starts
// draining, receives frameBits at inRate and re-drives them at outRate
// (rates as dimensionless clock-rate factors, 1.0 nominal).
//
// This is the leaky-bucket of §6: when the guardian drains slower than the
// frame arrives, bits pile up for the whole frame and the peak approaches
// le + Δ·f (eq. 1); when it drains faster, the initial threshold is the
// peak.
func PeakOccupancy(frameBits, thresholdBits int, inRate, outRate float64) float64 {
	if frameBits <= 0 {
		return 0
	}
	if thresholdBits < 0 {
		thresholdBits = 0
	}
	if thresholdBits > frameBits {
		thresholdBits = frameBits
	}
	if outRate >= inRate {
		// Drain keeps up: the start-up threshold is the high-water mark.
		return float64(thresholdBits)
	}
	// Remaining input after the threshold arrives over (frameBits-threshold)
	// input bit-times; during that span the output drains outRate/inRate of
	// it. The residue accumulates on top of the threshold.
	remaining := float64(frameBits - thresholdBits)
	return float64(thresholdBits) + remaining*(1-outRate/inRate)
}
