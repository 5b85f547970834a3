// Package sim provides a deterministic discrete-event simulation kernel:
// simulated time, an event scheduler, drifting local clocks, and a seeded
// random number generator. All higher-level substrates (channels, guardians,
// TTP/C nodes) are built on top of it.
package sim

import (
	"fmt"
	"time"
)

// Time is an absolute instant of simulated reference ("perfect") time,
// expressed in nanoseconds since the start of the simulation. Reference time
// is the time base of the simulation kernel itself; devices observe it only
// through their (drifting) local Clock.
type Time int64

// Infinity is a Time later than any event a simulation will ever schedule.
const Infinity Time = 1<<63 - 1

// Add returns the instant d after t.
func (t Time) Add(d time.Duration) Time { return t + Time(d) }

// Sub returns the duration from u to t.
func (t Time) Sub(u Time) time.Duration { return time.Duration(t - u) }

// After reports whether t is strictly later than u.
func (t Time) After(u Time) bool { return t > u }

// String formats the instant as seconds with nanosecond precision.
func (t Time) String() string {
	if t == Infinity {
		return "+inf"
	}
	return fmt.Sprintf("%.9fs", float64(t)/1e9)
}

// Microseconds returns the instant expressed in whole microseconds.
func (t Time) Microseconds() int64 { return int64(t) / 1e3 }

// LocalTime is an instant of a device's local clock, in nanoseconds of
// local (drifted) time. Distinct from Time so the two cannot be mixed up.
type LocalTime int64

// Add returns the local instant d after t.
func (t LocalTime) Add(d time.Duration) LocalTime { return t + LocalTime(d) }

// Sub returns the local duration from u to t.
func (t LocalTime) Sub(u LocalTime) time.Duration { return time.Duration(t - u) }

// String formats the local instant as seconds with nanosecond precision.
func (t LocalTime) String() string { return fmt.Sprintf("%.9fs(local)", float64(t)/1e9) }
