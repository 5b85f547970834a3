package guardian

import (
	"testing"
	"time"

	"ttastar/internal/channel"
	"ttastar/internal/cstate"
	"ttastar/internal/frame"
	"ttastar/internal/medl"
	"ttastar/internal/sim"
)

func frameColdStart(id cstate.NodeID, gt uint16) frame.Frame {
	return frame.NewColdStart(id, gt)
}

type localFixture struct {
	sched *sim.Scheduler
	medl  *medl.Schedule
	bus   *channel.Medium
	g     *Local
	rx    *sink
}

func newLocalFixture(t *testing.T) *localFixture {
	t.Helper()
	f := &localFixture{
		sched: sim.NewScheduler(),
		medl:  medl.Default4Node(),
	}
	f.bus = channel.NewMedium(f.sched, channel.ChannelA, "bus")
	f.rx = &sink{}
	f.bus.Attach(f.rx)
	g, err := NewLocal(f.sched, LocalConfig{Node: 2, Schedule: f.medl}, f.bus, nil)
	if err != nil {
		t.Fatalf("NewLocal: %v", err)
	}
	f.bus.Attach(g) // guardian overhears the bus
	f.g = g
	return f
}

func (f *localFixture) actionTime(roundStart sim.Time, slot int) sim.Time {
	return roundStart.Add(f.medl.SlotStart(slot) + f.medl.Slot(slot).ActionOffset)
}

// anchor puts a frame from node 1 on the bus so the guardian's tracker
// locks onto the round phase.
func (f *localFixture) anchor(t *testing.T) {
	t.Helper()
	bits := encodeFrame(t, frameColdStart(1, 0))
	f.bus.Transmit(channel.Transmission{
		Origin: 1, Bits: bits,
		Start:    f.actionTime(0, 1),
		Duration: f.medl.TransmissionTime(bits.Len()),
		Strength: channel.NominalStrength,
	})
	f.sched.RunUntil(sim.Time(f.medl.SlotStart(2)))
}

func TestNewLocalValidation(t *testing.T) {
	sched := sim.NewScheduler()
	bus := channel.NewMedium(sched, channel.ChannelA, "bus")
	if _, err := NewLocal(sched, LocalConfig{Node: 1}, bus, nil); err == nil {
		t.Error("missing schedule accepted")
	}
	if _, err := NewLocal(sched, LocalConfig{Node: 9, Schedule: medl.Default4Node()}, bus, nil); err == nil {
		t.Error("node without slot accepted")
	}
}

func TestLocalOpenBeforeSync(t *testing.T) {
	f := newLocalFixture(t)
	// Unsynced guardian forwards anything (start-up).
	bits := encodeFrame(t, frameColdStart(2, 0))
	f.g.Transmit(channel.Transmission{
		Origin: 2, Bits: bits, Start: 5,
		Duration: f.medl.TransmissionTime(bits.Len()), Strength: channel.NominalStrength,
	})
	f.sched.RunUntil(sim.Time(f.medl.RoundDuration()))
	if f.g.Stats().Forwarded != 1 {
		t.Errorf("Forwarded = %d, want 1", f.g.Stats().Forwarded)
	}
}

func TestLocalBlocksForeignSlotAfterSync(t *testing.T) {
	f := newLocalFixture(t)
	f.anchor(t)

	// Node 2's guardian sees a transmission attempt during slot 3.
	bits := encodeFrame(t, frameColdStart(2, 0))
	f.g.Transmit(channel.Transmission{
		Origin: 2, Bits: bits,
		Start:    f.actionTime(0, 3),
		Duration: f.medl.TransmissionTime(bits.Len()), Strength: channel.NominalStrength,
	})
	f.sched.RunUntil(sim.Time(f.medl.RoundDuration()))
	if f.g.Stats().Blocked != 1 {
		t.Errorf("Blocked = %d, want 1 (babbling idiot contained)", f.g.Stats().Blocked)
	}
}

func TestLocalAllowsOwnSlot(t *testing.T) {
	f := newLocalFixture(t)
	f.anchor(t)

	bits := encodeFrame(t, frameColdStart(2, 0))
	f.g.Transmit(channel.Transmission{
		Origin: 2, Bits: bits,
		Start:    f.actionTime(0, 2),
		Duration: f.medl.TransmissionTime(bits.Len()), Strength: channel.NominalStrength,
	})
	f.sched.RunUntil(sim.Time(f.medl.RoundDuration()))
	if f.g.Stats().Blocked != 0 {
		t.Error("own-slot transmission blocked")
	}
	if f.g.Stats().Forwarded != 1 {
		t.Errorf("Forwarded = %d, want 1", f.g.Stats().Forwarded)
	}
}

func TestLocalBlocksLateOwnSlot(t *testing.T) {
	f := newLocalFixture(t)
	f.anchor(t)

	bits := encodeFrame(t, frameColdStart(2, 0))
	f.g.Transmit(channel.Transmission{
		Origin: 2, Bits: bits,
		Start:    f.actionTime(0, 2).Add(60 * time.Microsecond),
		Duration: f.medl.TransmissionTime(bits.Len()), Strength: channel.NominalStrength,
	})
	f.sched.RunUntil(sim.Time(f.medl.RoundDuration()))
	if f.g.Stats().Blocked != 1 {
		t.Errorf("Blocked = %d, want 1 (frame far outside window)", f.g.Stats().Blocked)
	}
}

func TestLocalStuckClosed(t *testing.T) {
	f := newLocalFixture(t)
	f.g.SetFault(LocalFaultStuckClosed)
	bits := encodeFrame(t, frameColdStart(2, 0))
	f.g.Transmit(channel.Transmission{
		Origin: 2, Bits: bits, Start: 5,
		Duration: f.medl.TransmissionTime(bits.Len()), Strength: channel.NominalStrength,
	})
	f.sched.RunUntil(sim.Time(f.medl.RoundDuration()))
	if f.g.Stats().Forwarded != 0 || f.g.Stats().Blocked != 1 {
		t.Errorf("stuck-closed: forwarded=%d blocked=%d", f.g.Stats().Forwarded, f.g.Stats().Blocked)
	}
	if f.g.Fault() != LocalFaultStuckClosed {
		t.Error("fault not recorded")
	}
}

func TestLocalStuckOpenPassesBabble(t *testing.T) {
	f := newLocalFixture(t)
	f.anchor(t)
	f.g.SetFault(LocalFaultStuckOpen)

	// Babble in a foreign slot sails through.
	bits := encodeFrame(t, frameColdStart(2, 0))
	f.g.Transmit(channel.Transmission{
		Origin: 2, Bits: bits,
		Start:    f.actionTime(0, 4),
		Duration: f.medl.TransmissionTime(bits.Len()), Strength: channel.NominalStrength,
	})
	f.sched.RunUntil(sim.Time(f.medl.RoundDuration()))
	if f.g.Stats().Forwarded != 1 {
		t.Error("stuck-open guardian blocked the babble")
	}
}

func TestLocalIgnoresNoiseForPhase(t *testing.T) {
	f := newLocalFixture(t)
	f.g.Receive(channel.Reception{
		Channel: channel.ChannelA,
		Transmission: channel.Transmission{
			Bits: frame.NewWire(channel.NoiseBits(sim.NewRNG(1), 40)), Start: 0,
			Duration: 40 * time.Microsecond, Strength: channel.NominalStrength,
		},
	})
	if _, _, ok := f.g.tracker.SlotAt(0); ok {
		t.Error("guardian synced on noise")
	}
	// Collided or weak frames also do not sync.
	bits := encodeFrame(t, frameColdStart(1, 0))
	f.g.Receive(channel.Reception{
		Transmission: channel.Transmission{Bits: bits, Start: 0, Duration: time.Microsecond, Strength: 0.1},
	})
	f.g.Receive(channel.Reception{
		Collided:     true,
		Transmission: channel.Transmission{Bits: bits, Start: 0, Duration: time.Microsecond, Strength: 1},
	})
	if _, _, ok := f.g.tracker.SlotAt(0); ok {
		t.Error("guardian synced on weak/collided frame")
	}
}
