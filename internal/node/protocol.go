package node

import (
	"fmt"
	"time"

	"ttastar/internal/bitstr"
	"ttastar/internal/channel"
	"ttastar/internal/cstate"
	"ttastar/internal/frame"
	"ttastar/internal/membership"
	"ttastar/internal/sim"
)

// --- listen state -----------------------------------------------------------

func (n *Node) enterListen(reason string) {
	n.cancelTimers()
	n.bigBang = false
	n.transition(StateListen, reason)
	n.restartListenTimeout()
}

// restartListenTimeout (re)arms the startup timeout: one round plus the
// node's own slot offset, measured on the local clock. The per-node unique
// value is the paper's listen_timeout = node_id + N initialization.
func (n *Node) restartListenTimeout() {
	n.listenTimer.Cancel()
	deadline := n.clock.Now().Add(n.cfg.Schedule.StartupTimeout(n.cfg.ID))
	n.listenTimer = n.scheduleAtLocal(deadline, n.labels.listenTimeout, n.bound.listenTimeout)
}

func (n *Node) listenTimeoutExpired() {
	if n.state != StateListen {
		return
	}
	if !n.cfg.ColdStartAllowed {
		n.restartListenTimeout()
		return
	}
	// Carrier sense: with a frame in flight, hold the cold start until it
	// completes; the reception handler then decides (a valid frame resets
	// the timeout, noise lets the deferred expiry fire).
	now := n.sched.Now()
	var busy sim.Time
	for ch := channel.ID(0); ch < channel.NumChannels; ch++ {
		if n.busyUntil[ch] > busy {
			busy = n.busyUntil[ch]
		}
	}
	// A frame that ends exactly now may not have been delivered to us yet
	// (event ordering), so "busy through now" also defers.
	if busy >= now {
		n.listenTimer = n.sched.At(busy.Add(time.Microsecond),
			n.labels.deferredColdStart, n.bound.listenTimeout)
		return
	}
	n.enterColdStart()
}

// listenReceive processes network activity while unsynchronized.
func (n *Node) listenReceive(rx channel.Reception) {
	if rx.Collided || rx.Strength < n.cfg.StrengthThreshold {
		return // noise; does not reset the timeout
	}
	f, ok := rx.Bits.Integration()
	if !ok {
		if rx.Bits.LooksLikeFrame() {
			// Traffic exists (e.g. N-frames we cannot verify): keep
			// listening rather than cold-starting into a running cluster.
			n.restartListenTimeout()
		}
		return
	}
	switch f.Kind {
	case frame.KindColdStart:
		if n.bigBang && rx.Start.Sub(n.bigBangAt) < n.minSlotDuration()/2 {
			return // redundant-channel copy of the arming frame
		}
		if !n.bigBang {
			// Big-bang rule: never integrate on the first cold-start frame.
			n.bigBang = true
			n.bigBangAt = rx.Start
			n.trace("listen", "big bang armed by cold-start frame from %v", f.Sender)
			n.restartListenTimeout()
			return
		}
		n.integrateOnColdStart(f, rx)
	case frame.KindI, frame.KindX:
		n.integrateOnIFrame(f, rx)
	}
}

func (n *Node) integrateOnColdStart(f frame.Frame, rx channel.Reception) {
	slot := int(f.Sender)
	if slot < 1 || slot > n.cfg.Schedule.NumSlots() {
		n.trace("listen", "cold-start frame with unusable round slot %d ignored", slot)
		return
	}
	n.cs = cstate.CState{
		GlobalTime: f.CState.GlobalTime,
		RoundSlot:  uint16(slot),
		Membership: cstate.Membership(0).With(f.Sender),
	}
	n.integrate(slot, rx, "cold-start frame from "+f.Sender.String())
}

func (n *Node) integrateOnIFrame(f frame.Frame, rx channel.Reception) {
	slot := int(f.CState.RoundSlot)
	if slot < 1 || slot > n.cfg.Schedule.NumSlots() {
		n.trace("listen", "I-frame with unusable round slot %d ignored", slot)
		return
	}
	n.cs = cstate.CState{
		GlobalTime: f.CState.GlobalTime,
		RoundSlot:  uint16(slot),
		Membership: f.CState.Membership,
	}
	n.integrate(slot, rx, "I-frame in slot "+fmt.Sprint(slot))
}

// integrate adopts the sender's C-state and aligns the slot grid so the
// received frame sits at its slot's action time.
func (n *Node) integrate(slot int, rx channel.Reception, how string) {
	n.listenTimer.Cancel()
	n.slot = slot
	action := n.cfg.Schedule.Slot(slot).ActionOffset
	n.slotStartLocal = n.clock.At(rx.Start) - sim.LocalTime(action+n.cfg.DelayCorrection)
	n.counters.Reset()
	n.counters.Note(frame.StatusCorrect) // the frame integrated on
	n.skipJudge = true
	n.clearRxs()
	n.stats.Integrations++
	n.transition(StatePassive, "integrating on "+how)
	n.scheduleBoundary()
}

// minSlotDuration returns the shortest slot in the schedule; receptions
// closer together than half of it belong to the same slot event.
func (n *Node) minSlotDuration() time.Duration {
	min := n.cfg.Schedule.Slot(1).Duration
	for i := 2; i <= n.cfg.Schedule.NumSlots(); i++ {
		if d := n.cfg.Schedule.Slot(i).Duration; d < min {
			min = d
		}
	}
	return min
}

// --- cold start -------------------------------------------------------------

func (n *Node) enterColdStart() {
	n.cancelTimers()
	n.transition(StateColdStart, "listen timeout expired")
	n.slot = n.ownSlot
	n.cs = cstate.CState{
		GlobalTime: 0,
		RoundSlot:  uint16(n.ownSlot),
		Membership: cstate.Membership(0).With(n.cfg.ID),
	}
	n.counters.Reset()
	n.slotStartLocal = n.clock.Now()
	n.skipJudge = true // our own slot; nothing to judge
	n.sendColdStart()
	n.scheduleBoundary()
}

// --- slot engine ------------------------------------------------------------

func (n *Node) scheduleBoundary() {
	dur := n.cfg.Schedule.Slot(n.slot).Duration
	next := n.slotStartLocal + sim.LocalTime(dur)
	n.slotTimer = n.scheduleAtLocal(next, n.labels.boundary, n.bound.boundary)
}

func (n *Node) slotBoundary() {
	if !n.state.Operational() {
		return
	}
	ended := n.slot
	if !n.skipJudge {
		if ended != n.ownSlot {
			n.judgeSlot(ended)
		} else {
			n.judgeOwnSlotContention()
		}
	}
	if ended == n.ownSlot && n.sentMCR != 0 {
		// The sender adopts its own mode-change request at the same
		// instant receivers judged the frame carrying it.
		n.cs.DMC = uint16(n.sentMCR)
		n.sentMCR = 0
	}
	n.skipJudge = false
	n.clearRxs()

	// Advance the grid and the global time base.
	n.slotStartLocal += sim.LocalTime(n.cfg.Schedule.Slot(ended).Duration)
	n.slot = n.cfg.Schedule.NextSlot(n.slot)
	n.cs.GlobalTime++
	n.cs.RoundSlot = uint16(n.slot)
	if n.slot == 1 && n.cs.DMC != 0 {
		// Cluster-cycle boundary: the deferred mode change takes effect
		// on every integrated node simultaneously.
		n.cs.ClusterMode = n.cs.DMC
		n.cs.DMC = 0
		n.trace("protocol", "cluster mode is now %d", n.cs.ClusterMode)
	}

	if n.slot == n.ownSlot {
		n.ownSlotStart()
	}
	if n.state.Operational() {
		n.scheduleBoundary()
	}
}

// ownSlotStart runs the end-of-round protocol work: clock-sync correction,
// the clique-avoidance test, and — if the node may send — transmission.
func (n *Node) ownSlotStart() {
	// Apply the FTA clock correction to the slot grid (equivalent to a
	// local-clock state correction).
	if corr := n.sync.Correction(); corr != 0 {
		n.slotStartLocal += sim.LocalTime(corr)
		if n.tracer != nil { // boxing corr allocates; skip it untraced
			n.trace("sync", "applied correction %v", corr)
		}
	}

	switch n.state {
	case StateColdStart:
		switch {
		case n.counters.ColdStartAlone():
			// Nobody answered: send another cold-start frame.
			n.counters.Reset()
			n.sendColdStart()
		case n.counters.CliquePass():
			n.transition(StateActive, "cold start acknowledged")
			n.counters.Reset()
			n.sendScheduled()
		default:
			n.trace("protocol", "cold start failed clique test (%v)", n.counters)
			n.enterListen("cold start clique test failed")
		}

	case StateActive:
		if !n.counters.CliquePass() {
			n.stats.CliqueErrors++
			n.freeze("clique avoidance error (" + n.counters.String() + ")")
			return
		}
		n.counters.Reset()
		n.sendScheduled()

	case StatePassive:
		switch {
		case n.counters.Failed > 0 && !n.counters.CliquePass():
			n.stats.CliqueErrors++
			n.freeze("clique avoidance error (" + n.counters.String() + ")")
			return
		case n.counters.CliquePass() && n.counters.Agreed >= 2:
			// Heard the cluster and agreed with the majority: go active
			// and transmit.
			n.transition(StateActive, "acknowledged, entering active")
			n.counters.Reset()
			n.sendScheduled()
		default:
			n.counters.Reset()
		}
	}
}

// --- judging ----------------------------------------------------------------

func (n *Node) judgeSlot(slot int) {
	owner := n.cfg.Schedule.Slot(slot).Owner
	st := frame.StatusNull
	var received frame.Frame
	for ch := channel.ID(0); ch < channel.NumChannels; ch++ {
		chSt, f := n.judgeChannel(ch, slot)
		if chSt > st {
			st = chSt // a frame correct on either channel is correct
			received = f
		}
	}
	if st == frame.StatusCorrect {
		if received.Data != nil {
			for _, sink := range n.dataSinks {
				sink(slot, owner, received.Data)
			}
		}
		if received.ModeChangeRequest != 0 {
			n.cs.DMC = uint16(received.ModeChangeRequest)
		}
	}
	n.counters.Note(st)
	n.cs.Membership = membership.Apply(n.cs.Membership, owner, n.cfg.ID, st)
	switch st {
	case frame.StatusCorrect:
		n.stats.SlotsCorrect++
	case frame.StatusIncorrect:
		n.stats.SlotsIncorrect++
	case frame.StatusInvalid:
		n.stats.SlotsInvalid++
	default:
		n.stats.SlotsNull++
	}
	if st != frame.StatusNull {
		n.trace("judge", "slot %d (%v): %v", slot, owner, st)
	}
}

// judgeOwnSlotContention checks the node's own slot for foreign traffic.
// A controller monitors the channel during its own transmission; any
// foreign signal there is contention (e.g. two cold starters colliding
// exactly) and counts as a failed slot, which makes the clique test back
// the node off instead of resending into the collision forever.
func (n *Node) judgeOwnSlotContention() {
	for ch := channel.ID(0); ch < channel.NumChannels; ch++ {
		for _, rx := range n.rxs[ch] {
			if rx.Strength >= n.cfg.DetectionFloor {
				n.counters.Note(frame.StatusInvalid)
				n.stats.SlotsInvalid++
				n.trace("judge", "contention in own slot %d", n.ownSlot)
				return
			}
		}
	}
}

// judgeChannel judges the slot on channel ch. The frame it returns is
// present exactly when the status is incorrect or correct.
func (n *Node) judgeChannel(ch channel.ID, slot int) (frame.Status, frame.Frame) {
	var rx *channel.Reception
	detected := 0
	for i := range n.rxs[ch] {
		if n.rxs[ch][i].Strength >= n.cfg.DetectionFloor {
			detected++
			rx = &n.rxs[ch][i]
		}
	}
	if detected == 0 {
		return frame.StatusNull, frame.Frame{}
	}
	if detected > 1 {
		// A valid frame must not be interfered with during its slot.
		return frame.StatusInvalid, frame.Frame{}
	}
	if rx.Collided || rx.Strength < n.cfg.StrengthThreshold {
		return frame.StatusInvalid, frame.Frame{}
	}

	// Timing: the frame must start within the acceptance window around the
	// slot's action time. Per-receiver tolerance differences are what turn
	// marginal timing into inter-node disagreement (SOS faults).
	sl := n.cfg.Schedule.Slot(slot)
	expected := n.slotStartLocal + sim.LocalTime(sl.ActionOffset+n.cfg.DelayCorrection)
	dev := time.Duration(n.clock.At(rx.Start) - expected)
	window := n.cfg.Schedule.Precision + n.cfg.TimingTolerance
	if dev.Abs() > window {
		return frame.StatusInvalid, frame.Frame{}
	}

	// Content: decode against the expected C-state for this slot.
	expectedCS := n.cs
	expectedCS.RoundSlot = uint16(slot)
	expectedCS.Membership = expectedCS.Membership.With(sl.Owner)
	res := rx.Bits.Decode(sl.Kind, expectedCS)
	if res.Status == frame.StatusInvalid {
		// Not the scheduled layout; a well-formed cold-start frame in a
		// scheduled slot is a valid frame with unexpected content.
		if cs := rx.Bits.Decode(frame.KindColdStart, expectedCS); cs.Status == frame.StatusCorrect {
			return frame.StatusIncorrect, cs.Frame
		}
		return frame.StatusInvalid, frame.Frame{}
	}
	if res.Status == frame.StatusCorrect {
		n.sync.Observe(dev)
	}
	return res.Status, res.Frame
}

// --- transmission -----------------------------------------------------------

func (n *Node) sendColdStart() {
	n.txFrame = frame.NewColdStart(n.cfg.ID, n.cs.GlobalTime)
	n.transmitAtAction()
	n.stats.ColdStartsSent++
}

func (n *Node) sendScheduled() {
	sl := n.cfg.Schedule.Slot(n.ownSlot)
	n.cs.Membership = n.cs.Membership.With(n.cfg.ID)
	switch sl.Kind {
	case frame.KindI:
		n.txFrame = frame.NewI(n.cfg.ID, n.cs)
	case frame.KindN:
		n.txFrame = frame.NewN(n.cfg.ID, n.cs, n.payload(sl.DataBits))
	case frame.KindX:
		n.txFrame = frame.NewX(n.cfg.ID, n.cs, n.payload(sl.DataBits))
	default:
		return
	}
	if n.pendingMCR != 0 {
		// The request travels in the frame header; the C-state still
		// carries the old DMC — sender and receivers all adopt the new
		// one at the end of this slot.
		n.txFrame.ModeChangeRequest = n.pendingMCR
		n.sentMCR = n.pendingMCR
		n.pendingMCR = 0
	}
	n.transmitAtAction()
	n.stats.FramesSent++
}

func (n *Node) payload(bits int) *bitstr.String {
	if n.dataFunc != nil {
		return n.dataFunc(bits)
	}
	if bits == 0 {
		return nil
	}
	s := bitstr.New(bits)
	for i := 0; i < bits; i++ {
		s.AppendBit(false)
	}
	return s
}

// transmitAtAction encodes txFrame into the node's next wire and schedules
// its transmission at the current slot's action time.
func (n *Node) transmitAtAction() {
	w := &n.txWires[n.txNext]
	if err := n.txFrame.EncodeTo(w); err != nil {
		panic(fmt.Sprintf("node %v: encoding scheduled frame: %v", n.cfg.ID, err))
	}
	n.txBits, n.txNext = w, 1-n.txNext
	action := n.slotStartLocal + sim.LocalTime(n.cfg.Schedule.Slot(n.ownSlot).ActionOffset)
	n.txTimer = n.scheduleAtLocal(action, n.labels.tx, n.bound.tx)
}

// transmitNow puts txBits on both channels. The wire duration is measured
// out by the node's own (drifting) clock: a slow node really does occupy
// the wire longer, which is the effect the §6 buffer analysis is about.
func (n *Node) transmitNow() {
	bits := n.txBits
	nominal := n.cfg.Schedule.TransmissionTime(bits.Len())
	tx := channel.Transmission{
		Origin:   n.cfg.ID,
		Bits:     bits,
		Start:    n.sched.Now(),
		Duration: n.clock.RefDuration(nominal),
		Strength: channel.NominalStrength,
	}
	n.trace("tx", "%v (%d bits)", n.txFrame.Kind, bits.Len())
	for ch := channel.ID(0); ch < channel.NumChannels; ch++ {
		w := n.wires[ch]
		if w == nil {
			continue
		}
		out, send := tx, true
		if n.txHook != nil {
			out, send = n.txHook(ch, tx)
		}
		if send {
			w.Transmit(out)
		}
	}
}
