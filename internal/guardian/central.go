package guardian

import (
	"errors"
	"fmt"
	"time"

	"ttastar/internal/channel"
	"ttastar/internal/cstate"
	"ttastar/internal/frame"
	"ttastar/internal/medl"
	"ttastar/internal/sim"
)

// CentralConfig parameterizes a central guardian (star coupler).
type CentralConfig struct {
	// Name labels the coupler in traces (e.g. "coupler0").
	Name string
	// Authority is the §4.1 feature set.
	Authority Authority
	// Schedule is the cluster MEDL the guardian enforces.
	Schedule *medl.Schedule
	// Drift is the guardian's own oscillator deviation (guardians must be
	// fully independent of the nodes, including clocking).
	Drift sim.PPB
	// BufferBits is the forwarding-buffer capacity. Zero selects a default
	// per authority: nothing for passive, le for time windows, the §6-safe
	// f_min − 1 for small shifting, and the largest frame for full
	// shifting.
	BufferBits int
	// SemanticAnalysis enables content filtering: blocking masqueraded
	// cold-start frames (claimed sender vs physical input port) and frames
	// whose C-state disagrees with the guardian's phase view (§2.2, [2]).
	SemanticAnalysis bool
	// LineEncodingBits is the paper's le (default 4).
	LineEncodingBits int
	// WindowMargin widens the guardian's acceptance window beyond the
	// cluster precision. It defaults to zero and must stay at or below
	// every receiver's timing tolerance: the guardian being the *tightest*
	// judge is what guarantees that whatever it forwards is acceptable to
	// all receivers — the consistency argument that defeats SOS timing
	// faults ([2]).
	WindowMargin time.Duration
	// StaleAfter controls when the guardian's phase view expires (default
	// two rounds).
	StaleAfter time.Duration
}

func (c CentralConfig) withDefaults() CentralConfig {
	if c.LineEncodingBits == 0 {
		c.LineEncodingBits = DefaultLineEncodingBits
	}
	if c.BufferBits == 0 && c.Schedule != nil {
		switch c.Authority {
		case AuthorityTimeWindows:
			c.BufferBits = c.LineEncodingBits
		case AuthoritySmallShift:
			c.BufferBits = c.minFrameBits() - 1 // B_max of eq. (3)
		case AuthorityFullShift:
			c.BufferBits = c.maxFrameBits()
		}
	}
	return c
}

func (c CentralConfig) minFrameBits() int {
	min := frame.ColdStartBits
	for i := 1; i <= c.Schedule.NumSlots(); i++ {
		if b := c.Schedule.Slot(i).FrameBits(); b < min {
			min = b
		}
	}
	return min
}

func (c CentralConfig) maxFrameBits() int {
	max := frame.ColdStartBits
	for i := 1; i <= c.Schedule.NumSlots(); i++ {
		if b := c.Schedule.Slot(i).FrameBits(); b > max {
			max = b
		}
	}
	return max
}

// CentralStats counts guardian activity for experiment harnesses.
type CentralStats struct {
	Received        int // transmissions arriving on input ports
	Forwarded       int // transmissions placed on the distribution side
	WindowBlocked   int // blocked: outside the sender's slot window
	WrongSlot       int // blocked: input port does not own the slot
	SemanticBlocked int // blocked by semantic analysis
	FaultDropped    int // dropped by an injected silence/bad-frame fault
	Reshaped        int // frames re-timed/re-driven
	Truncated       int // frames damaged by forwarding-buffer overflow
	TailsCut        int // transmissions cut off at the slot boundary
	NoiseEmissions  int // bad-frame fault noise bursts
	Replays         int // out-of-slot replays of the buffered frame
	PeakBufferBits  float64
}

// Errors for fault injection misuse.
var (
	ErrFaultImpossible = errors.New("guardian: fault mode impossible for this authority")
	ErrNoBufferedFrame = errors.New("guardian: no buffered frame to replay")
)

// Central is a star coupler with a configurable authority level. Nodes
// transmit into it through per-node input ports (InputPort); it forwards
// onto the distribution medium all nodes listen on.
type Central struct {
	sched   *sim.Scheduler
	clock   *sim.Clock
	cfg     CentralConfig
	out     *channel.Medium
	tracker *PhaseTracker
	rng     *sim.RNG
	tracer  sim.Tracer

	fault    FaultMode
	noiseEv  sim.Event
	buffered bufferedFrame
	stats    CentralStats

	// Scheduler labels, built once, and the bound noise callback.
	forwardLabel, noiseLabel, replayLabel string
	noiseTick                             func()
	// forwards holds idle forwarding records for reuse.
	forwards []*forwarding
	// ports are the input ports handed out so far, one per node: fault
	// injectors ask for a port on every rogue transmission.
	ports []*inputPort
}

// forwarding is one transmission the coupler has accepted and will place
// on the distribution medium at its output start. Records are pooled per
// coupler and carry their scheduler callback, bound once.
type forwarding struct {
	g    *Central
	tx   channel.Transmission
	fire func()
}

// bufferedFrame is the last frame a full-shifting coupler forwarded, kept
// in the coupler's own reused storage: the sender rewrites its wire two
// transmissions later, the coupler its copy only at the next forward.
type bufferedFrame struct {
	ok       bool // a frame has been buffered
	bits     frame.Wire
	origin   cstate.NodeID
	duration time.Duration
}

// NewCentral builds a star coupler driving the distribution medium out.
func NewCentral(sched *sim.Scheduler, cfg CentralConfig, out *channel.Medium, rng *sim.RNG, tracer sim.Tracer) (*Central, error) {
	if cfg.Schedule == nil {
		return nil, errors.New("guardian: central config needs a schedule")
	}
	if cfg.Authority < AuthorityPassive || cfg.Authority > AuthorityFullShift {
		return nil, fmt.Errorf("guardian: unknown authority %d", cfg.Authority)
	}
	cfg = cfg.withDefaults()
	clock := sim.NewClock(sched, cfg.Drift)
	tracker := NewPhaseTracker(clock, cfg.Schedule, cfg.StaleAfter)
	tracker.SetMaxCorrection(cfg.Schedule.Precision)
	g := &Central{
		sched:        sched,
		clock:        clock,
		cfg:          cfg,
		out:          out,
		tracker:      tracker,
		rng:          rng,
		tracer:       tracer,
		forwardLabel: cfg.Name + " forward",
		noiseLabel:   cfg.Name + " noise",
		replayLabel:  cfg.Name + " replay",
	}
	g.noiseTick = g.noiseSlot
	return g, nil
}

// Stats returns a snapshot of the coupler's counters.
func (g *Central) Stats() CentralStats { return g.stats }

// Fault returns the active fault mode.
func (g *Central) Fault() FaultMode { return g.fault }

// Authority returns the coupler's feature set.
func (g *Central) Authority() Authority { return g.cfg.Authority }

// BufferBits returns the coupler's forwarding-buffer capacity.
func (g *Central) BufferBits() int { return g.cfg.BufferBits }

// Tracker exposes the phase tracker (tests and experiments).
func (g *Central) Tracker() *PhaseTracker { return g.tracker }

// SetFault injects a coupler fault. Out-of-slot replay is rejected unless
// the coupler can buffer full frames — the constraint whose violation the
// paper studies.
func (g *Central) SetFault(m FaultMode) error {
	if !m.PossibleFor(g.cfg.Authority) {
		return fmt.Errorf("%w: %v on %v coupler", ErrFaultImpossible, m, g.cfg.Authority)
	}
	g.clearNoise()
	g.fault = m
	if m == FaultBadFrame {
		g.emitNoise()
	}
	g.trace("fault set: %v", m)
	return nil
}

// ClearFault restores error-free operation.
func (g *Central) ClearFault() {
	g.clearNoise()
	g.fault = FaultNone
}

func (g *Central) clearNoise() { g.noiseEv.Cancel() }

// emitNoise places a noise burst on the distribution side and re-arms
// itself every slot while the bad-frame fault is active.
func (g *Central) emitNoise() {
	burst := 30 + g.rng.Intn(20)
	g.out.Transmit(channel.Transmission{
		Origin:   cstate.NoNode,
		Bits:     frame.NewWire(channel.NoiseBits(g.rng, burst)),
		Start:    g.sched.Now(),
		Duration: g.cfg.Schedule.TransmissionTime(burst),
		Strength: channel.NominalStrength,
	})
	g.stats.NoiseEmissions++
	g.noiseEv = g.sched.After(g.cfg.Schedule.Slot(1).Duration, g.noiseLabel, g.noiseTick)
}

// noiseSlot is the bad-frame fault's per-slot event.
func (g *Central) noiseSlot() {
	if g.fault == FaultBadFrame {
		g.emitNoise()
	}
}

// ReplayBuffered re-sends the last buffered frame after delay — the
// out-of-slot fault occurring. Only a full-shifting coupler can do this.
func (g *Central) ReplayBuffered(delay time.Duration) error {
	if !g.cfg.Authority.CanBufferFrames() {
		return fmt.Errorf("%w: %v coupler", ErrFaultImpossible, g.cfg.Authority)
	}
	b := &g.buffered
	if !b.ok {
		return ErrNoBufferedFrame
	}
	// The replay sends the frame buffered now; later forwards overwrite
	// the buffer before it fires.
	bits, origin, duration := b.bits.Clone(), b.origin, b.duration
	g.sched.After(delay, g.replayLabel, func() {
		g.stats.Replays++
		g.trace("out_of_slot: replaying %d-bit frame from %v", bits.Len(), origin)
		g.out.Transmit(channel.Transmission{
			Origin:   origin,
			Bits:     bits,
			Start:    g.sched.Now(),
			Duration: duration,
			Strength: channel.NominalStrength,
		})
	})
	return nil
}

// InputPort returns the wire node id transmits into. The port preserves the
// physical identity of the attached node, which is what lets semantic
// analysis catch masquerading.
func (g *Central) InputPort(id cstate.NodeID) channel.Wire {
	for _, p := range g.ports {
		if p.attached == id {
			return p
		}
	}
	p := &inputPort{g: g, attached: id}
	g.ports = append(g.ports, p)
	return p
}

type inputPort struct {
	g        *Central
	attached cstate.NodeID
}

var _ channel.Wire = (*inputPort)(nil)

func (p *inputPort) Transmit(tx channel.Transmission) { p.g.handle(p.attached, tx) }

// handle processes one transmission arriving from a node.
func (g *Central) handle(port cstate.NodeID, tx channel.Transmission) {
	g.stats.Received++

	switch g.fault {
	case FaultSilence:
		g.stats.FaultDropped++
		return
	case FaultBadFrame:
		// The channel carries noise regardless; the input is lost in it.
		g.stats.FaultDropped++
		return
	}

	if g.cfg.Authority == AuthorityPassive {
		// A passive hub is just the wire: no window, no reshaping, no
		// buffering — and no added latency worth modeling.
		g.forward(tx.Origin, tx.Bits, tx.Start, tx.Duration, tx.Strength, false)
		return
	}

	latency := g.cfg.Schedule.TransmissionTime(g.cfg.LineEncodingBits)
	outStart := tx.Start.Add(latency)
	outDur := tx.Duration
	outStrength := tx.Strength
	reshaped := false

	bits := tx.Bits
	// One reading of the tracker serves the window, semantic analysis and
	// the phase evidence below.
	ph := g.tracker.phaseAt(tx.Start)
	if ph.ok {
		slot, off := ph.slot, ph.offset
		sl := g.cfg.Schedule.Slot(slot)
		if sl.Owner != port {
			g.stats.WrongSlot++
			g.trace("blocked %v: slot %d belongs to %v", port, slot, sl.Owner)
			return
		}
		dev := off - sl.ActionOffset
		window := g.cfg.Schedule.Precision + g.cfg.WindowMargin
		if dev.Abs() > window {
			g.stats.WindowBlocked++
			g.trace("blocked %v: %v outside ±%v window of slot %d", port, dev, window, slot)
			return
		}
		effOff := off
		if g.cfg.Authority.CanReshape() && dev < 0 {
			// Small shifting: an early frame is held in the buffer and
			// released at the action time. (A late frame cannot be moved
			// earlier than it arrived; it is forwarded at cut-through
			// latency and, having passed the guardian's tight window, is
			// within every receiver's acceptance anyway.)
			outStart = tx.Start.Add(latency - dev)
			effOff = sl.ActionOffset
			reshaped = true
		}
		// The bus closes a guard time before the slot boundary: a
		// transmission running past it is cut off, so a babbling sender
		// cannot bleed into the next slot. The budget is measured from
		// where the (possibly re-timed) transmission actually sits.
		if remaining := sl.Duration - effOff - latency; outDur > remaining {
			if remaining <= 0 {
				g.stats.WindowBlocked++
				g.trace("blocked %v: no transmission time left in slot %d", port, slot)
				return
			}
			keep := int(int64(bits.Len()) * int64(remaining) / int64(outDur))
			if keep < 0 {
				keep = 0
			}
			bits = bits.Slice(0, keep)
			outDur = remaining
			g.stats.TailsCut++
			g.trace("cut %v's transmission at the slot %d boundary", port, slot)
		}
	}

	if g.cfg.SemanticAnalysis && !g.semanticCheck(port, tx.Bits, ph) {
		return
	}

	if g.cfg.Authority.CanReshape() {
		// Re-drive the signal at nominal strength and re-clock the bits at
		// the guardian's own rate.
		if outStrength != channel.NominalStrength {
			outStrength = channel.NominalStrength
			reshaped = true
		}
		nominal := g.cfg.Schedule.TransmissionTime(bits.Len())
		outDur = g.clock.RefDuration(nominal)

		// Leaky-bucket accounting (§6): input arrives at the sender's rate,
		// output drains at the guardian's.
		inRate := float64(nominal) / float64(tx.Duration)
		outRate := 1 + g.cfg.Drift.Float()
		peak := PeakOccupancy(bits.Len(), g.cfg.LineEncodingBits, inRate, outRate)
		if peak > g.stats.PeakBufferBits {
			g.stats.PeakBufferBits = peak
		}
		if overflow := peak - float64(g.cfg.BufferBits); overflow > 0 {
			// The buffer ran over: the tail of the frame is lost.
			keep := bits.Len() - int(overflow) - 1
			if keep < 0 {
				keep = 0
			}
			g.stats.Truncated++
			g.trace("buffer overflow forwarding %v: peak %.1f > %d bits", port, peak, g.cfg.BufferBits)
			g.forward(tx.Origin, bits.Slice(0, keep), outStart, outDur, outStrength, reshaped)
			return
		}
	}

	if g.cfg.Authority.CanBufferFrames() {
		b := &g.buffered
		b.bits.CopyFrom(bits)
		b.ok, b.origin, b.duration = true, tx.Origin, outDur
	}

	g.forward(tx.Origin, bits, outStart, outDur, outStrength, reshaped)
	// Anchor on the input timing: the nodes' grid, free of our own
	// forwarding latency (anchoring on the output would accumulate the
	// latency on every re-anchor). The frame comes from the parse semantic
	// analysis already made, unless the forward was cut and is a string
	// of its own.
	if f, slot := g.tracker.evidence(bits); slot != 0 {
		g.tracker.observe(f, slot, ph)
	}
}

// semanticCheck vets frame content the way [2]'s central guardian does,
// against the tracker's reading ph of the frame's start. It reports
// whether the frame may pass.
func (g *Central) semanticCheck(port cstate.NodeID, bits *frame.Wire, ph phase) bool {
	f, ok := bits.Integration()
	if !ok {
		return true // not a frame the guardian interprets; timing rules apply
	}
	switch f.Kind {
	case frame.KindColdStart:
		if f.Sender != port {
			g.stats.SemanticBlocked++
			g.trace("semantic block: cold-start claims %v but arrived from %v", f.Sender, port)
			return false
		}
	case frame.KindI:
		if !ph.ok {
			break
		}
		if diff := int16(f.CState.GlobalTime - ph.gt); diff < -1 || diff > 1 {
			g.stats.SemanticBlocked++
			g.trace("semantic block: I-frame global time %d vs guardian view %d", f.CState.GlobalTime, ph.gt)
			return false
		}
		if int(f.CState.RoundSlot) != ph.slot {
			g.stats.SemanticBlocked++
			g.trace("semantic block: I-frame round slot %d in slot %d", f.CState.RoundSlot, ph.slot)
			return false
		}
	}
	return true
}

func (g *Central) forward(origin cstate.NodeID, bits *frame.Wire, start sim.Time, dur time.Duration, strength float64, reshaped bool) {
	if start < g.sched.Now() {
		start = g.sched.Now()
	}
	g.stats.Forwarded++
	if reshaped {
		g.stats.Reshaped++
	}
	var f *forwarding
	if n := len(g.forwards); n > 0 {
		f = g.forwards[n-1]
		g.forwards = g.forwards[:n-1]
	} else {
		f = &forwarding{g: g}
		f.fire = f.transmit
	}
	f.tx = channel.Transmission{Origin: origin, Bits: bits, Start: start, Duration: dur, Strength: strength}
	g.sched.At(start, g.forwardLabel, f.fire)
}

// transmit places the forwarded transmission on the distribution medium
// and returns the record to the pool.
func (f *forwarding) transmit() {
	g := f.g
	tx := f.tx
	f.tx = channel.Transmission{}
	g.forwards = append(g.forwards, f)
	g.out.Transmit(tx)
}

func (g *Central) trace(format string, args ...any) {
	if g.tracer == nil {
		return
	}
	g.tracer.Trace(g.sched.Now(), "guardian", g.cfg.Name+": "+fmt.Sprintf(format, args...))
}
