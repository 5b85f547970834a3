package guardian

import (
	"testing"
	"time"

	"ttastar/internal/bitstr"
	"ttastar/internal/cstate"
	"ttastar/internal/frame"
	"ttastar/internal/medl"
	"ttastar/internal/sim"
)

func encodeFrame(t *testing.T, f frame.Frame) *frame.Wire {
	t.Helper()
	bits, err := f.Encode()
	if err != nil {
		t.Fatalf("Encode: %v", err)
	}
	return frame.NewWire(bits)
}

func trackerFixture(t *testing.T) (*sim.Scheduler, *medl.Schedule, *PhaseTracker) {
	t.Helper()
	sched := sim.NewScheduler()
	s := medl.Default4Node()
	clock := sim.NewClock(sched, 0)
	return sched, s, NewPhaseTracker(clock, s, 0)
}

func TestTrackerUnsyncedInitially(t *testing.T) {
	_, _, tr := trackerFixture(t)
	if tr.Synced(0) {
		t.Error("fresh tracker claims sync")
	}
	if _, _, ok := tr.SlotAt(0); ok {
		t.Error("SlotAt ok without sync")
	}
	if _, ok := tr.GlobalTimeAt(0); ok {
		t.Error("GlobalTimeAt ok without sync")
	}
}

func TestTrackerAnchorsOnColdStart(t *testing.T) {
	_, s, tr := trackerFixture(t)
	bits := encodeFrame(t, frame.NewColdStart(2, 7))

	// Frame from node 2 starts at its action time within slot 2.
	start := sim.Time(100 * time.Microsecond)
	tr.Observe(bits, start)
	if !tr.Synced(start) {
		t.Fatal("tracker did not sync on cold-start frame")
	}
	slot, off, ok := tr.SlotAt(start)
	if !ok || slot != 2 || off != s.Slot(2).ActionOffset {
		t.Errorf("SlotAt(anchor) = %d, %v, %v", slot, off, ok)
	}
	gt, ok := tr.GlobalTimeAt(start)
	if !ok || gt != 7 {
		t.Errorf("GlobalTimeAt(anchor) = %d, %v, want 7", gt, ok)
	}
}

func TestTrackerAdvancesThroughRound(t *testing.T) {
	_, s, tr := trackerFixture(t)
	cs := cstate.CState{GlobalTime: 10, RoundSlot: 1, Membership: cstate.Membership(0).With(1)}
	tr.Observe(encodeFrame(t, frame.NewI(1, cs)), 0)

	// Anchor: slot 1 action time at t=0, so slot 1 started at -ActionOffset.
	base := -s.Slot(1).ActionOffset
	for want := 1; want <= 4; want++ {
		at := sim.Time(base + s.SlotStart(want) + time.Microsecond)
		slot, _, ok := tr.SlotAt(at)
		if !ok || slot != want {
			t.Errorf("SlotAt(slot %d start) = %d, %v", want, slot, ok)
		}
		gt, _ := tr.GlobalTimeAt(at)
		if gt != 10+uint16(want-1) {
			t.Errorf("GlobalTimeAt(slot %d) = %d, want %d", want, gt, 10+want-1)
		}
	}
	// Wrap into the next round.
	at := sim.Time(base + s.RoundDuration() + time.Microsecond)
	slot, _, ok := tr.SlotAt(at)
	if !ok || slot != 1 {
		t.Errorf("SlotAt(next round) = %d, %v, want 1", slot, ok)
	}
}

func TestTrackerGoesStale(t *testing.T) {
	_, s, tr := trackerFixture(t)
	tr.Observe(encodeFrame(t, frame.NewColdStart(1, 0)), 0)
	stale := sim.Time(3 * s.RoundDuration())
	if tr.Synced(stale) {
		t.Error("tracker still synced after 3 silent rounds")
	}
	// A new frame resyncs it.
	tr.Observe(encodeFrame(t, frame.NewColdStart(1, 0)), stale)
	if !tr.Synced(stale) {
		t.Error("tracker did not resync")
	}
}

func TestTrackerIgnoresGarbage(t *testing.T) {
	_, _, tr := trackerFixture(t)
	tr.Observe(frame.NewWire(bitstr.FromBits(true, false, true)), 0)
	if tr.Synced(0) {
		t.Error("tracker synced on noise")
	}
	// Out-of-range round slot.
	tr.Observe(encodeFrame(t, frame.NewColdStart(9, 0)), 0)
	if tr.Synced(0) {
		t.Error("tracker synced on cold-start with slot 9 of 4")
	}
	// N-frames carry no usable C-state.
	tr.Observe(encodeFrame(t, frame.NewN(1, cstate.CState{}, nil)), 0)
	if tr.Synced(0) {
		t.Error("tracker synced on N-frame")
	}
}

func TestTrackerDesync(t *testing.T) {
	_, _, tr := trackerFixture(t)
	tr.Observe(encodeFrame(t, frame.NewColdStart(1, 0)), 0)
	tr.Desync()
	if tr.Synced(0) {
		t.Error("Desync did not take")
	}
}

func TestTrackerBeforeAnchorNotOK(t *testing.T) {
	sched := sim.NewScheduler()
	s := medl.Default4Node()
	clock := sim.NewClock(sched, 0)
	tr := NewPhaseTracker(clock, s, 0)
	tr.Observe(encodeFrame(t, frame.NewColdStart(1, 0)), sim.Time(time.Millisecond))
	if _, _, ok := tr.SlotAt(0); ok {
		t.Error("SlotAt before the anchor reported ok")
	}
}

// TestPhaseReadingMatchesWalks holds the tracker's one-walk reading to
// the three walks it replaces — the slot walk of the elapsed time modulo
// a round, the global-time walk of the whole elapsed time, and the
// deviation walk from the anchor slot to the claimed one — on a schedule
// with unequal slots, at instants before and after the anchor, including
// ones before it where only the deviation is defined.
func TestPhaseReadingMatchesWalks(t *testing.T) {
	sched := sim.NewScheduler()
	s := medl.Default4Node()
	s.Slots[1].Duration += 7 * time.Microsecond
	s.Slots[3].Duration += 3 * time.Microsecond
	tr := NewPhaseTracker(sim.NewClock(sched, 0), s, 100*s.RoundDuration())
	round := s.RoundDuration()
	rng := sim.NewRNG(5)
	for i := 0; i < 5000; i++ {
		tr.synced = true
		tr.anchorSlot = 1 + rng.Intn(s.NumSlots())
		tr.anchorTime = uint16(rng.Uint64())
		tr.anchorLocal = sim.LocalTime(3*round) + sim.LocalTime(rng.Range(0, int64(round)))
		tr.lastSeen = tr.anchorLocal
		at := sim.Time(rng.Range(int64(2*round), int64(7*round)))
		elapsed := time.Duration(tr.clock.At(at) - tr.anchorLocal)

		ph := tr.phaseAt(at)
		if ph.ok != (elapsed >= 0) || !ph.synced {
			t.Fatalf("elapsed %v: reading ok %v synced %v", elapsed, ph.ok, ph.synced)
		}
		if elapsed >= 0 {
			slot, rest := tr.anchorSlot, elapsed%round
			for rest >= s.Slot(slot).Duration {
				rest -= s.Slot(slot).Duration
				slot = s.NextSlot(slot)
			}
			gt, all, walk := tr.anchorTime, elapsed, tr.anchorSlot
			for all >= s.Slot(walk).Duration {
				all -= s.Slot(walk).Duration
				walk = s.NextSlot(walk)
				gt++
			}
			if ph.slot != slot || ph.offset != rest || ph.gt != gt {
				t.Fatalf("elapsed %v: reading slot %d +%v gt %d, walks give slot %d +%v gt %d", elapsed, ph.slot, ph.offset, ph.gt, slot, rest, gt)
			}
		}

		claimed := 1 + rng.Intn(s.NumSlots())
		newAnchor := tr.clock.At(at) - sim.LocalTime(s.Slot(claimed).ActionOffset)
		var offset time.Duration
		for sl := tr.anchorSlot; sl != claimed; sl = s.NextSlot(sl) {
			offset += s.Slot(sl).Duration
		}
		want := time.Duration(newAnchor-tr.anchorLocal-sim.LocalTime(offset)) % round
		if want > round/2 {
			want -= round
		}
		if want <= -round/2 {
			want += round
		}
		if got := tr.deviation(ph, claimed); got != want {
			t.Fatalf("elapsed %v, slot %d claimed: deviation %v, walk gives %v", elapsed, claimed, got, want)
		}
	}
}
