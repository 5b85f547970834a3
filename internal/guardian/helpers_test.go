package guardian

// Functions only the tests call.

// CanBlock reports whether the coupler can stop frames (close the bus).
func (a Authority) CanBlock() bool { return a >= AuthorityTimeWindows }

// MinBufferBits returns the §6 eq. (1) minimum buffer size
// B_min = le + Δ·f_max for a guardian that must forward frames of up to
// fMax bits across a relative clock-rate difference delta.
func MinBufferBits(le int, delta float64, fMax int) float64 {
	return float64(le) + delta*float64(fMax)
}

// Desync drops the tracker back to unsynchronized (fault injection).
func (p *PhaseTracker) Desync() { p.synced = false }
