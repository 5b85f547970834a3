package clocksync

// Functions only the tests call.

import (
	"time"

	"ttastar/internal/sim"
)

// Pending returns the number of measurements collected this interval.
func (s *Synchronizer) Pending() int { return len(s.devs) }

// PrecisionBound returns a worst-case bound on the offset between two
// correct clocks that resynchronize every interval: accumulated relative
// drift plus twice the reading error. This is the Π used to size acceptance
// windows.
func PrecisionBound(maxDrift sim.PPB, interval, readingError time.Duration) time.Duration {
	drift := time.Duration(int64(interval) * 2 * int64(maxDrift) / 1_000_000_000)
	return drift + 2*readingError
}
