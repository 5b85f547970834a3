package node

import (
	"testing"
	"time"

	"ttastar/internal/channel"
	"ttastar/internal/frame"
	"ttastar/internal/sim"
)

// TestCarrierSenseDefersColdStart locks in the §4.3 rule "a cold-start
// frame on the channel keeps the node in listen even if the timeout just
// reached zero": a frame in flight at timeout expiry defers the cold
// start, and the node integrates/resets instead of transmitting into it.
func TestCarrierSenseDefersColdStart(t *testing.T) {
	tc := newTestCluster(t, 2)
	n := tc.nodes[0]
	n.Start(0)

	// Compute when node A's listen timeout will expire: init (one slot)
	// plus the startup timeout.
	expiry := tc.medl.Slot(1).Duration + tc.medl.StartupTimeout(1)

	// Arrange a foreign transmission that is on the wire exactly then.
	bits := frame.NewWire(channel.NoiseBits(sim.NewRNG(1), 40))
	txStart := sim.Time(expiry - 20*time.Microsecond)
	tc.sched.At(txStart, "inflight", func() {
		tc.media[0].Transmit(channel.Transmission{
			Origin:   2,
			Bits:     bits,
			Start:    tc.sched.Now(),
			Duration: 40 * time.Microsecond,
			Strength: channel.NominalStrength,
		})
	})

	// Run just past the nominal expiry: node A must still be listening
	// (deferred), not cold-starting into the transmission.
	tc.sched.RunUntil(sim.Time(expiry + 5*time.Microsecond))
	if n.State() != StateListen {
		t.Fatalf("state at deferred expiry = %v, want listen", n.State())
	}
	if n.Stats().ColdStartsSent != 0 {
		t.Fatal("node transmitted a cold start into in-flight traffic")
	}

	// Once the wire is quiet the deferred expiry fires (the noise does not
	// reset the timeout) and the node cold-starts.
	tc.sched.RunUntil(sim.Time(expiry + 200*time.Microsecond))
	if n.State() != StateColdStart {
		t.Fatalf("state after deferral = %v, want cold_start", n.State())
	}
}

// TestOwnSlotContentionBacksOff locks in the cold-start collision rule:
// a cold starter that detects foreign traffic in its own slot fails the
// clique test and backs off to listen instead of resending forever.
func TestOwnSlotContentionBacksOff(t *testing.T) {
	tc := newTestCluster(t, 2)
	n := tc.nodes[0]
	n.Start(0)
	// Let A reach cold_start.
	coldStartAt := tc.medl.Slot(1).Duration + tc.medl.StartupTimeout(1) + 2*time.Microsecond
	tc.sched.RunUntil(sim.Time(coldStartAt))
	if n.State() != StateColdStart {
		t.Fatalf("precondition: state = %v", n.State())
	}
	// Inject overlapping foreign traffic into A's own slot, every round.
	round := tc.medl.RoundDuration()
	for k := 0; k < 3; k++ {
		at := tc.sched.Now().Add(time.Duration(k)*round + 12*time.Microsecond)
		tc.sched.At(at, "contention", func() {
			tc.media[0].Transmit(channel.Transmission{
				Origin:   2,
				Bits:     frame.NewWire(channel.NoiseBits(sim.NewRNG(7), 60)),
				Start:    tc.sched.Now(),
				Duration: 60 * time.Microsecond,
				Strength: channel.NominalStrength,
			})
		})
	}
	tc.sched.RunUntil(sim.Time(coldStartAt) + sim.Time(2*round))
	if n.State() == StateColdStart {
		t.Error("cold starter kept resending despite own-slot contention")
	}
}
