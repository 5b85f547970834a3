package sim

import (
	"fmt"
	"time"
)

// PPB expresses a clock-rate deviation in parts per billion. Positive means
// the clock runs fast relative to reference time. The paper's worst-case
// commodity oscillator (eq. 5) is ±100 ppm = ±100_000 ppb.
type PPB int64

// PPM converts a parts-per-million figure to PPB.
func PPM(ppm float64) PPB { return PPB(ppm * 1e3) }

// Float returns the deviation as a dimensionless fraction (100 ppm → 1e-4).
func (p PPB) Float() float64 { return float64(p) / 1e9 }

// String formats the deviation in ppm.
func (p PPB) String() string { return fmt.Sprintf("%+.3fppm", float64(p)/1e3) }

const ppbScale = 1_000_000_000

// Clock models a device-local oscillator with a constant rate deviation from
// reference time, plus a correction offset that clock synchronization may
// adjust. All arithmetic is integer (exact and deterministic).
//
// The mapping is
//
//	local(t) = offset + elapsed + elapsed*drift/1e9,  elapsed = t - epoch
//
// Epoch/offset are rebased on every adjustment so elapsed stays small enough
// that elapsed*drift never overflows (drift ≤ ~1e8 ppb, elapsed ≤ ~1e10 ns
// between rebasings in practice; the product stays far below 2^63).
type Clock struct {
	sched  *Scheduler
	drift  PPB
	epoch  Time
	offset LocalTime
}

// NewClock returns a clock with the given constant rate deviation, reading
// zero local time at the scheduler's current instant.
func NewClock(sched *Scheduler, drift PPB) *Clock {
	return &Clock{sched: sched, drift: drift, epoch: sched.Now()}
}

// Drift returns the clock's constant rate deviation.
func (c *Clock) Drift() PPB { return c.drift }

// Now returns the current local time.
func (c *Clock) Now() LocalTime { return c.At(c.sched.Now()) }

// At returns the local time the clock reads at reference instant t.
func (c *Clock) At(t Time) LocalTime {
	elapsed := int64(t - c.epoch)
	return c.offset + LocalTime(elapsed+mulDivRound(elapsed, int64(c.drift), ppbScale))
}

// WhenLocal returns the reference instant at which the clock will read
// local time l. It is the inverse of At up to integer rounding (≤1 ns).
func (c *Clock) WhenLocal(l LocalTime) Time {
	localElapsed := int64(l - c.offset)
	// elapsed ≈ localElapsed * 1e9 / (1e9 + drift), done as
	// localElapsed - localElapsed*drift/(1e9+drift) to keep magnitudes small.
	elapsed := localElapsed - mulDivRound(localElapsed, int64(c.drift), ppbScale+int64(c.drift))
	return c.epoch.Add(time.Duration(elapsed))
}

// Adjust applies a correction (positive steps the local clock forward) at
// the current instant. Clock synchronization uses this to apply its
// correction term at the end of each resynchronization interval.
func (c *Clock) Adjust(correction time.Duration) {
	c.rebase()
	c.offset += LocalTime(correction)
}

// RefDuration converts a local duration to the reference duration it spans.
func (c *Clock) RefDuration(d time.Duration) time.Duration {
	return d - time.Duration(mulDivRound(int64(d), int64(c.drift), ppbScale+int64(c.drift)))
}

// rebase moves epoch/offset to the current instant without changing the
// clock reading, keeping elapsed values small.
func (c *Clock) rebase() {
	now := c.sched.Now()
	c.offset = c.At(now)
	c.epoch = now
}

// mulDivRound returns a*b/den rounded to nearest, correct for the magnitudes
// clocks use (|a*b| < 2^63).
func mulDivRound(a, b, den int64) int64 {
	p := a * b
	half := den / 2
	if p >= 0 {
		return (p + half) / den
	}
	return (p - half) / den
}
