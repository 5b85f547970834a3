package channel

import (
	"testing"
	"time"

	"ttastar/internal/bitstr"
	"ttastar/internal/cstate"
	"ttastar/internal/frame"
	"ttastar/internal/sim"
)

func cstateID(i int) cstate.NodeID { return cstate.NodeID(i) }

type captureReceiver struct {
	got []Reception
}

func (c *captureReceiver) Receive(rx Reception) { c.got = append(c.got, rx) }

func tx(origin int, start sim.Time, dur time.Duration) Transmission {
	return Transmission{
		Origin:   cstateID(origin),
		Bits:     frame.NewWire(bitstr.FromBits(true, false, true)),
		Start:    start,
		Duration: dur,
		Strength: NominalStrength,
	}
}

func TestMediumDeliversAtEnd(t *testing.T) {
	sched := sim.NewScheduler()
	m := NewMedium(sched, ChannelA, "bus")
	rc := &captureReceiver{}
	m.Attach(rc)

	m.Transmit(tx(1, 100, 50*time.Nanosecond))
	sched.RunUntil(149)
	if len(rc.got) != 0 {
		t.Fatal("delivered before transmission end")
	}
	sched.RunUntil(150)
	if len(rc.got) != 1 {
		t.Fatalf("got %d receptions, want 1", len(rc.got))
	}
	rx := rc.got[0]
	if rx.Channel != ChannelA || rx.Collided || rx.Start != 100 || rx.End() != 150 {
		t.Errorf("reception = %+v", rx)
	}
}

func TestMediumBroadcastsToAllReceivers(t *testing.T) {
	sched := sim.NewScheduler()
	m := NewMedium(sched, ChannelB, "bus")
	rcs := []*captureReceiver{{}, {}, {}}
	for _, rc := range rcs {
		m.Attach(rc)
	}
	m.Transmit(tx(1, 0, 10*time.Nanosecond))
	sched.RunUntil(20)
	for i, rc := range rcs {
		if len(rc.got) != 1 {
			t.Errorf("receiver %d got %d receptions, want 1", i, len(rc.got))
		}
	}
	if m.Transmissions() != 1 {
		t.Errorf("Transmissions() = %d, want 1", m.Transmissions())
	}
}

func TestMediumMarksCollisions(t *testing.T) {
	sched := sim.NewScheduler()
	m := NewMedium(sched, ChannelA, "bus")
	rc := &captureReceiver{}
	m.Attach(rc)

	m.Transmit(tx(1, 100, 100*time.Nanosecond))
	sched.RunUntil(150)
	m.Transmit(tx(2, 150, 100*time.Nanosecond)) // overlaps [150,200)
	sched.RunUntil(300)

	if len(rc.got) != 2 {
		t.Fatalf("got %d receptions, want 2", len(rc.got))
	}
	for i, rx := range rc.got {
		if !rx.Collided {
			t.Errorf("reception %d not marked collided", i)
		}
	}
}

func TestMediumNonOverlappingClean(t *testing.T) {
	sched := sim.NewScheduler()
	m := NewMedium(sched, ChannelA, "bus")
	rc := &captureReceiver{}
	m.Attach(rc)

	m.Transmit(tx(1, 0, 100*time.Nanosecond))
	sched.RunUntil(100)
	m.Transmit(tx(2, 100, 100*time.Nanosecond)) // back-to-back: [0,100) then [100,200)
	sched.RunUntil(300)

	for i, rx := range rc.got {
		if rx.Collided {
			t.Errorf("reception %d spuriously collided", i)
		}
	}
}

func TestMediumBusy(t *testing.T) {
	sched := sim.NewScheduler()
	m := NewMedium(sched, ChannelA, "bus")
	m.Transmit(tx(1, 100, 50*time.Nanosecond))
	if m.Busy(99) {
		t.Error("busy before start")
	}
	if !m.Busy(100) || !m.Busy(149) {
		t.Error("not busy during transmission")
	}
	if m.Busy(150) {
		t.Error("busy at end instant")
	}
}

func TestMediumRejectsPastTransmission(t *testing.T) {
	sched := sim.NewScheduler()
	m := NewMedium(sched, ChannelA, "bus")
	sched.At(100, "advance", func() {})
	sched.RunUntil(100)
	defer func() {
		if recover() == nil {
			t.Error("past transmission did not panic")
		}
	}()
	m.Transmit(tx(1, 50, 10*time.Nanosecond))
}

func TestTransmissionOverlaps(t *testing.T) {
	a := tx(1, 100, 50*time.Nanosecond) // [100,150)
	cases := []struct {
		b    Transmission
		want bool
	}{
		{tx(2, 150, 10*time.Nanosecond), false}, // touching, no overlap
		{tx(2, 90, 10*time.Nanosecond), false},  // ends exactly at start
		{tx(2, 149, 10*time.Nanosecond), true},
		{tx(2, 90, 20*time.Nanosecond), true},
		{tx(2, 110, 10*time.Nanosecond), true}, // contained
		{tx(2, 90, 100*time.Nanosecond), true}, // containing
	}
	for i, tc := range cases {
		if got := a.Overlaps(tc.b); got != tc.want {
			t.Errorf("case %d: Overlaps = %v, want %v", i, got, tc.want)
		}
		if got := tc.b.Overlaps(a); got != tc.want {
			t.Errorf("case %d: Overlaps not symmetric", i)
		}
	}
}

func TestNoiseBits(t *testing.T) {
	rng := sim.NewRNG(3)
	n := NoiseBits(rng, 64)
	if n.Len() != 64 {
		t.Fatalf("noise length = %d", n.Len())
	}
	ones := 0
	for i := 0; i < 64; i++ {
		if n.Bit(i) {
			ones++
		}
	}
	if ones == 0 || ones == 64 {
		t.Errorf("noise has %d/64 ones; not noisy", ones)
	}
}

func TestChannelIDString(t *testing.T) {
	if ChannelA.String() != "ch0" || ChannelB.String() != "ch1" {
		t.Error("ID.String() wrong")
	}
	if NumChannels != 2 {
		t.Errorf("NumChannels = %d, want 2", NumChannels)
	}
}
