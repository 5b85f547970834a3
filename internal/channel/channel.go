// Package channel models the physical transmission media of a TTA cluster:
// broadcast wires that carry bit strings with real timing and signal
// strength. Both topologies are assembled from the same Medium type — a bus
// is one medium shared by all nodes; a star is a per-node input wire into a
// central coupler plus a distribution medium driven by it.
package channel

import (
	"fmt"
	"time"

	"ttastar/internal/bitstr"
	"ttastar/internal/cstate"
	"ttastar/internal/frame"
	"ttastar/internal/sim"
)

// ID identifies one of the two redundant channels.
type ID int

// The TTA requires two independent channels.
const (
	ChannelA ID = iota
	ChannelB
	NumChannels
)

// String names the channel.
func (id ID) String() string { return fmt.Sprintf("ch%d", int(id)) }

// NominalStrength is the signal strength of a healthy transmitter; receiver
// thresholds sit well below it.
const NominalStrength = 1.0

// Transmission is a signal placed on a wire.
type Transmission struct {
	// Origin is the physical source node (NoNode for guardian-generated
	// signals such as noise).
	Origin cstate.NodeID
	// Bits is the transmitted bit string with its cached parse (nil for
	// pure noise). Every receiver of the transmission, on both channels,
	// shares it: receivers read it and never change it, and its sender
	// leaves it untouched until every receiver has judged the slot it was
	// sent in (see frame.Wire).
	Bits *frame.Wire
	// Start is when the first bit hits the wire.
	Start sim.Time
	// Duration is the time the signal occupies the wire.
	Duration time.Duration
	// Strength is the signal strength (NominalStrength for a healthy
	// transmitter; SOS-value faults sit near receiver thresholds).
	Strength float64
}

// End returns the instant the signal leaves the wire.
func (t Transmission) End() sim.Time { return t.Start.Add(t.Duration) }

// Overlaps reports whether two transmissions occupy the wire simultaneously.
func (t Transmission) Overlaps(o Transmission) bool {
	return t.Start < o.End() && o.Start < t.End()
}

// Reception is what an attached receiver observes: the transmission, which
// channel it appeared on, and whether another transmission interfered.
type Reception struct {
	Channel ID
	Transmission
	// Collided is set when the signal overlapped another transmission;
	// receivers judge collided slots invalid.
	Collided bool
}

// Receiver consumes receptions from a medium. Receive is called at the end
// of each transmission.
type Receiver interface {
	Receive(rx Reception)
}

// CarrierSenser is an optional Receiver extension: implementations are
// additionally notified when a transmission *begins* on the medium, with
// the instant it will end. TTP/C controllers carrier-sense the channel to
// avoid cold-starting into traffic already in flight.
type CarrierSenser interface {
	CarrierSense(ch ID, until sim.Time)
}

// Wire is anything a transmission can be handed to: a raw medium, a
// guardian guarding a medium, or a star-coupler input port.
type Wire interface {
	Transmit(tx Transmission)
}

// Medium is a broadcast wire. Every transmission is delivered to every
// attached receiver when it completes; overlapping transmissions are
// delivered with Collided set.
type Medium struct {
	sched     *sim.Scheduler
	id        ID
	name      string
	receivers []Receiver
	active    []*pendingTx
	free      []*pendingTx
	count     uint64

	// carrierLabel and deliveryLabel name the medium's scheduler events,
	// built once rather than per transmission.
	carrierLabel, deliveryLabel string
}

// pendingTx is one transmission on its way through the medium. Records
// are pooled per medium and carry their scheduler callbacks, bound once
// when the record is made, so a warm medium transmits without allocating.
type pendingTx struct {
	m        *Medium
	tx       Transmission
	collided bool

	senseCarrier, deliver func()
}

var _ Wire = (*Medium)(nil)

// NewMedium returns an empty broadcast medium on channel id.
func NewMedium(sched *sim.Scheduler, id ID, name string) *Medium {
	return &Medium{sched: sched, id: id, name: name,
		carrierLabel: name + " carrier", deliveryLabel: name + " delivery"}
}

// Attach subscribes r to all future deliveries.
func (m *Medium) Attach(r Receiver) { m.receivers = append(m.receivers, r) }

// Transmit places tx on the wire. Transmissions must not start in the past.
func (m *Medium) Transmit(tx Transmission) {
	if tx.Start < m.sched.Now() {
		panic(fmt.Sprintf("channel %s: transmission starts at %v, before now %v", m.name, tx.Start, m.sched.Now()))
	}
	m.count++
	p := m.pending(tx)
	for _, other := range m.active {
		if other.tx.Overlaps(tx) {
			other.collided = true
			p.collided = true
		}
	}
	m.active = append(m.active, p)
	m.sched.At(tx.Start, m.carrierLabel, p.senseCarrier)
	m.sched.At(tx.End(), m.deliveryLabel, p.deliver)
}

// pending returns a record for tx, reusing a delivered one when it can.
func (m *Medium) pending(tx Transmission) *pendingTx {
	var p *pendingTx
	if n := len(m.free); n > 0 {
		p = m.free[n-1]
		m.free = m.free[:n-1]
	} else {
		p = &pendingTx{m: m}
		p.senseCarrier = p.carrier
		p.deliver = p.delivery
	}
	p.tx, p.collided = tx, false
	return p
}

// carrier tells carrier-sensing receivers the wire is busy until the
// transmission ends. It fires at the start, always before the delivery.
func (p *pendingTx) carrier() {
	for _, r := range p.m.receivers {
		if cs, ok := r.(CarrierSenser); ok {
			cs.CarrierSense(p.m.id, p.tx.End())
		}
	}
}

// delivery hands the finished transmission to every receiver, then
// returns the record to the pool: reap has already dropped it from the
// active list, and both of its events have fired.
func (p *pendingTx) delivery() {
	m := p.m
	m.reap()
	rx := Reception{Channel: m.id, Transmission: p.tx, Collided: p.collided}
	for _, r := range m.receivers {
		r.Receive(rx)
	}
	p.tx = Transmission{}
	m.free = append(m.free, p)
}

// reap drops transmissions that can no longer overlap anything new.
func (m *Medium) reap() {
	now := m.sched.Now()
	kept := m.active[:0]
	for _, p := range m.active {
		if p.tx.End() > now {
			kept = append(kept, p)
		}
	}
	// Zero the tail so reaped entries are collectable.
	for i := len(kept); i < len(m.active); i++ {
		m.active[i] = nil
	}
	m.active = kept
}

// NoiseBits returns a deterministic pseudo-random bit string of the given
// length, used to model bad-frame/babble signals on a wire.
func NoiseBits(rng *sim.RNG, n int) *bitstr.String {
	s := bitstr.New(n)
	for i := 0; i < n; i++ {
		s.AppendBit(rng.Bool())
	}
	return s
}
