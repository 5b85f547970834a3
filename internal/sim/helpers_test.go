package sim

// Functions only the tests call.

import (
	"fmt"
	"time"
)

// SetLocal steps the clock so it reads l at the current instant. Nodes use
// this when adopting the global time from a frame during integration.
func (c *Clock) SetLocal(l LocalTime) {
	c.rebase()
	c.offset = l
}

// LocalDuration converts a reference duration to the local duration the
// clock would measure over it.
func (c *Clock) LocalDuration(d time.Duration) time.Duration {
	return d + time.Duration(mulDivRound(int64(d), int64(c.drift), ppbScale))
}

// Perm returns a random permutation of [0, n).
func (r *RNG) Perm(n int) []int {
	p := make([]int, n)
	for i := range p {
		j := r.Intn(i + 1)
		p[i] = p[j]
		p[j] = i
	}
	return p
}

// Pending returns the number of events in the queue, counting cancelled
// events that have not yet reached its head.
func (s *Scheduler) Pending() int { return len(s.heap) }

// Tracef records a formatted message.
func (r *Recorder) Tracef(at Time, category, format string, args ...any) {
	r.Trace(at, category, fmt.Sprintf(format, args...))
}

// Entries returns the recorded entries in order.
func (r *Recorder) Entries() []TraceEntry {
	out := make([]TraceEntry, len(r.entries))
	copy(out, r.entries)
	return out
}

// Before reports whether t is strictly earlier than u.
func (t Time) Before(u Time) bool { return t < u }
