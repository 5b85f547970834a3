package guardian

import (
	"time"

	"ttastar/internal/clocksync"
	"ttastar/internal/frame"
	"ttastar/internal/medl"
	"ttastar/internal/sim"
)

// PhaseTracker derives and maintains a guardian's view of the TDMA phase by
// observing the frames passing through it. Guardians are independent of the
// nodes (own clock), so this is their only time reference.
//
// The first valid cold-start or I-frame anchors the phase. From then on the
// tracker behaves like a clock-synchronization slave: it collects the
// deviation of every observed frame from its predicted action time and,
// once per round, applies a fault-tolerant average of the deviations as a
// phase correction. Following the *consensus* instead of re-anchoring on
// each frame is essential: a single slightly-off-specification sender must
// not drag the guardian's windows around. A tracker that has seen no
// plausible frame for staleAfter returns to unsynchronized, so a guardian
// cannot keep enforcing a dead cluster's phase against a fresh start-up.
type PhaseTracker struct {
	clock         *sim.Clock
	schedule      *medl.Schedule
	staleAfter    time.Duration
	maxCorrection time.Duration

	synced        bool
	anchorLocal   sim.LocalTime // local time of the anchor slot's start
	anchorSlot    int
	anchorTime    uint16 // global time at the anchor slot
	lastSeen      sim.LocalTime
	devs          []time.Duration
	lastCorrected sim.LocalTime
}

// NewPhaseTracker returns an unsynchronized tracker. staleAfter of zero
// defaults to two rounds.
func NewPhaseTracker(clock *sim.Clock, schedule *medl.Schedule, staleAfter time.Duration) *PhaseTracker {
	if staleAfter == 0 {
		staleAfter = 2 * schedule.RoundDuration()
	}
	return &PhaseTracker{clock: clock, schedule: schedule, staleAfter: staleAfter}
}

// SetMaxCorrection bounds the phase correction applied per round (zero, the
// default, leaves it unbounded). Guardians set it to the cluster precision.
func (p *PhaseTracker) SetMaxCorrection(d time.Duration) { p.maxCorrection = d }

// Observe lets the tracker inspect the transmission w that started at
// start. Valid cold-start and I-frames either anchor the phase (when
// unsynchronized) or feed the tracker's clock-synchronization deviations.
func (p *PhaseTracker) Observe(w *frame.Wire, start sim.Time) {
	if f, slot := p.evidence(w); slot != 0 {
		p.observe(f, slot, p.phaseAt(start))
	}
}

// evidence returns the frame on w and the slot it claims to be sent in
// when it is phase evidence: a cold-start or I-frame with an intact CRC
// claiming a slot of the schedule. The slot is 0 for anything else.
func (p *PhaseTracker) evidence(w *frame.Wire) (frame.Frame, int) {
	f, ok := w.Integration()
	if !ok {
		return f, 0
	}
	var slot int
	switch f.Kind {
	case frame.KindColdStart:
		slot = int(f.Sender)
	case frame.KindI:
		slot = int(f.CState.RoundSlot)
	}
	if slot < 1 || slot > p.schedule.NumSlots() {
		return f, 0
	}
	return f, slot
}

// observe takes frame f, claiming slot, as phase evidence; ph is the
// tracker's reading of the frame's start.
func (p *PhaseTracker) observe(f frame.Frame, slot int, ph phase) {
	l := ph.local
	if !ph.synced {
		p.anchorLocal = l - sim.LocalTime(p.schedule.Slot(slot).ActionOffset)
		p.anchorSlot = slot
		p.anchorTime = f.CState.GlobalTime
		p.lastSeen = l
		p.lastCorrected = l
		p.devs = p.devs[:0]
		p.synced = true
		return
	}

	round := p.schedule.RoundDuration()
	dev := p.deviation(ph, slot)
	if dev.Abs() > round/4 {
		return // implausible as phase evidence; ignore entirely
	}
	p.lastSeen = l
	p.devs = append(p.devs, dev)

	if time.Duration(l-p.lastCorrected) >= round {
		corr := p.consensusCorrection()
		if p.maxCorrection > 0 {
			if corr > p.maxCorrection {
				corr = p.maxCorrection
			}
			if corr < -p.maxCorrection {
				corr = -p.maxCorrection
			}
		}
		p.anchorLocal += sim.LocalTime(corr)
		p.devs = p.devs[:0]
		p.lastCorrected = l
		p.rebase(l)
	}
}

// consensusCorrection is the fault-tolerant average of the round's
// deviations: with three or more senders one faulty measurement is
// discarded from each extreme; with fewer the plain average is the best
// available.
func (p *PhaseTracker) consensusCorrection() time.Duration {
	if len(p.devs) == 0 {
		return 0
	}
	if len(p.devs) >= 3 {
		return clocksync.FTA(p.devs, 1)
	}
	return clocksync.FTA(p.devs, 0)
}

// rebase advances the anchor by whole rounds so the walk in SlotAt stays
// short and the global-time estimate keeps counting.
func (p *PhaseTracker) rebase(now sim.LocalTime) {
	round := p.schedule.RoundDuration()
	slots := uint16(p.schedule.NumSlots())
	for time.Duration(now-p.anchorLocal) >= 2*round {
		p.anchorLocal += sim.LocalTime(round)
		p.anchorTime += slots
	}
}

// Synced reports whether the tracker currently has a usable phase.
func (p *PhaseTracker) Synced(at sim.Time) bool {
	if !p.synced {
		return false
	}
	return time.Duration(p.clock.At(at)-p.lastSeen) <= p.staleAfter
}

// phase is the tracker's reading of one instant.
type phase struct {
	local  sim.LocalTime // the instant on the guardian's clock
	synced bool          // the tracker has a usable phase at the instant
	// ok is set when the tracker is synced and the instant is not before
	// the anchor: gt is then the global time at the instant. Whenever the
	// tracker is synced, slot is the slot in progress at the instant (the
	// grid runs periodically both ways from the anchor) and offset the
	// time into it.
	ok     bool
	slot   int
	offset time.Duration
	gt     uint16
}

// phaseAt reads the instant at by free-running the guardian clock from the
// anchor: one walk over the slots of at most one round gives the slot, the
// offset into it and the global time.
func (p *PhaseTracker) phaseAt(at sim.Time) phase {
	ph := phase{local: p.clock.At(at)}
	ph.synced = p.synced && time.Duration(ph.local-p.lastSeen) <= p.staleAfter
	if !ph.synced {
		return ph
	}
	elapsed := time.Duration(ph.local - p.anchorLocal)
	round := p.schedule.RoundDuration()
	ph.ok = elapsed >= 0
	into := elapsed % round
	if into < 0 {
		into += round
	}
	slots := p.schedule.Slots
	gt := p.anchorTime + uint16(int64(len(slots))*int64(elapsed/round))
	slot := p.anchorSlot
	for into >= slots[slot-1].Duration {
		into -= slots[slot-1].Duration
		slot = p.schedule.NextSlot(slot)
		gt++
	}
	ph.slot, ph.offset, ph.gt = slot, into, gt
	return ph
}

// SlotAt returns the TDMA slot in progress at instant at and the offset
// into it, by free-running the guardian clock from the anchor.
func (p *PhaseTracker) SlotAt(at sim.Time) (slot int, offset time.Duration, ok bool) {
	ph := p.phaseAt(at)
	if !ph.ok {
		return 0, 0, false
	}
	return ph.slot, ph.offset, true
}

// GlobalTimeAt returns the tracker's estimate of the cluster global time at
// instant at (slots elapsed since the anchor).
func (p *PhaseTracker) GlobalTimeAt(at sim.Time) (uint16, bool) {
	ph := p.phaseAt(at)
	if !ph.ok {
		return 0, false
	}
	return ph.gt, true
}

// deviation returns how far a frame claiming slot, whose start the
// tracker read as ph, deviates from the slot's predicted action time,
// normalized to (−round/2, round/2]. The prediction is periodic, so the
// distance between the slot in progress and the claimed one is their
// start offsets' difference within the round.
func (p *PhaseTracker) deviation(ph phase, slot int) time.Duration {
	diff := ph.offset - p.schedule.Slot(slot).ActionOffset
	if slot != ph.slot {
		diff += p.schedule.SlotStart(ph.slot) - p.schedule.SlotStart(slot)
	}
	round := p.schedule.RoundDuration()
	diff %= round
	if diff > round/2 {
		diff -= round
	}
	if diff <= -round/2 {
		diff += round
	}
	return diff
}

// NextSlotStart returns the first instant at or after 'after' when the
// given slot begins, per the tracker's phase view. Experiment scripts use
// it to aim fault injections at specific slots.
func (p *PhaseTracker) NextSlotStart(after sim.Time, slot int) (sim.Time, bool) {
	if !p.Synced(after) || slot < 1 || slot > p.schedule.NumSlots() {
		return 0, false
	}
	localAfter := p.clock.At(after)
	t := p.anchorLocal
	cur := p.anchorSlot
	for t < localAfter || cur != slot {
		t += sim.LocalTime(p.schedule.Slot(cur).Duration)
		cur = p.schedule.NextSlot(cur)
	}
	return p.clock.WhenLocal(t), true
}
