package medl

// Functions only the tests call.

import (
	"time"
)

// BitTime returns the duration of a single bit on the wire.
func (s *Schedule) BitTime() time.Duration { return s.TransmissionTime(1) }
