package channel

// Functions only the tests call.

import (
	"ttastar/internal/sim"
)

// Transmissions returns how many transmissions the medium has carried.
func (m *Medium) Transmissions() uint64 { return m.count }

// Busy reports whether any transmission occupies the wire at instant at.
func (m *Medium) Busy(at sim.Time) bool {
	for _, p := range m.active {
		if at >= p.tx.Start && at < p.tx.End() {
			return true
		}
	}
	return false
}
