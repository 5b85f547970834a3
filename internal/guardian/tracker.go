package guardian

import (
	"time"

	"ttastar/internal/bitstr"
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

// Observe lets the tracker inspect a frame that started at start. Valid
// cold-start and I-frames either anchor the phase (when unsynchronized) or
// feed the tracker's clock-synchronization deviations.
func (p *PhaseTracker) Observe(bits *bitstr.String, start sim.Time) {
	f, ok := frame.DecodeForIntegration(bits)
	if !ok {
		return
	}
	var slot int
	switch f.Kind {
	case frame.KindColdStart:
		slot = int(f.Sender)
	case frame.KindI:
		slot = int(f.CState.RoundSlot)
	default:
		return
	}
	if slot < 1 || slot > p.schedule.NumSlots() {
		return
	}
	l := p.clock.At(start)
	newAnchor := l - sim.LocalTime(p.schedule.Slot(slot).ActionOffset)

	if !p.Synced(start) {
		p.anchorLocal = newAnchor
		p.anchorSlot = slot
		p.anchorTime = f.CState.GlobalTime
		p.lastSeen = l
		p.lastCorrected = l
		p.devs = p.devs[:0]
		p.synced = true
		return
	}

	round := p.schedule.RoundDuration()
	dev := p.anchorDeviation(newAnchor, slot)
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

// SlotAt returns the TDMA slot in progress at instant at and the offset
// into it, by free-running the guardian clock from the anchor.
func (p *PhaseTracker) SlotAt(at sim.Time) (slot int, offset time.Duration, ok bool) {
	if !p.Synced(at) {
		return 0, 0, false
	}
	elapsed := time.Duration(p.clock.At(at) - p.anchorLocal)
	if elapsed < 0 {
		return 0, 0, false
	}
	round := p.schedule.RoundDuration()
	elapsed %= round
	slot = p.anchorSlot
	for elapsed >= p.schedule.Slot(slot).Duration {
		elapsed -= p.schedule.Slot(slot).Duration
		slot = p.schedule.NextSlot(slot)
	}
	return slot, elapsed, true
}

// GlobalTimeAt returns the tracker's estimate of the cluster global time at
// instant at (slots elapsed since the anchor).
func (p *PhaseTracker) GlobalTimeAt(at sim.Time) (uint16, bool) {
	if !p.Synced(at) {
		return 0, false
	}
	elapsed := time.Duration(p.clock.At(at) - p.anchorLocal)
	if elapsed < 0 {
		return 0, false
	}
	gt := p.anchorTime
	slot := p.anchorSlot
	for elapsed >= p.schedule.Slot(slot).Duration {
		elapsed -= p.schedule.Slot(slot).Duration
		slot = p.schedule.NextSlot(slot)
		gt++
	}
	return gt, true
}

// anchorDeviation returns how far newAnchor (a claimed start of the given
// slot) deviates from the current phase prediction, normalized to
// (−round/2, round/2].
func (p *PhaseTracker) anchorDeviation(newAnchor sim.LocalTime, slot int) time.Duration {
	offset := time.Duration(0)
	for s := p.anchorSlot; s != slot; s = p.schedule.NextSlot(s) {
		offset += p.schedule.Slot(s).Duration
	}
	predicted := p.anchorLocal + sim.LocalTime(offset)
	round := p.schedule.RoundDuration()
	diff := time.Duration(newAnchor-predicted) % round
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
