// Package node implements the TTP/C controller: the nine-state protocol
// machine (§4.3 of the paper), big-bang cold start, integration via
// cold-start and I-frames, per-slot validity/correctness judgement, the
// clique-avoidance test, group membership, and FTA clock synchronization —
// all running in simulated time on drifting local clocks.
package node

import (
	"fmt"
	"time"

	"ttastar/internal/bitstr"
	"ttastar/internal/channel"
	"ttastar/internal/clocksync"
	"ttastar/internal/cstate"
	"ttastar/internal/frame"
	"ttastar/internal/membership"
	"ttastar/internal/sim"
)

// Node is one TTP/C controller attached to the two cluster channels.
type Node struct {
	cfg    Config
	sched  *sim.Scheduler
	clock  *sim.Clock
	wires  [channel.NumChannels]channel.Wire
	tracer sim.Tracer

	state    State
	cs       cstate.CState
	slot     int // current TDMA slot number (1-based), valid when Operational
	ownSlot  int
	counters membership.Counters
	bigBang  bool
	// bigBangAt is when the arming cold-start frame started; the same
	// frame's copy on the redundant channel (or any reception within half
	// a slot) is the same event, not a second cold-start.
	bigBangAt sim.Time
	sync      *clocksync.Synchronizer

	pendingMCR uint8 // host mode-change request awaiting transmission
	sentMCR    uint8 // request in the frame currently on the wire

	slotStartLocal sim.LocalTime // local time the current slot began
	slotTimer      sim.Event
	listenTimer    sim.Event
	hostTimer      sim.Event
	txTimer        sim.Event
	skipJudge      bool // current slot already consumed by integration

	// txFrame is the frame the pending tx event sends; txBits is its
	// encoding, one of the node's two wires. The node encodes into them in
	// turn, so a wire is rewritten only two transmissions after it was
	// sent, long after every receiver judged it.
	txFrame frame.Frame
	txBits  *frame.Wire
	txWires [2]frame.Wire
	txNext  int

	rxs       [channel.NumChannels][]channel.Reception
	busyUntil [channel.NumChannels]sim.Time

	txHook    TxHook
	dataFunc  func(bits int) *bitstr.String
	dataSinks []DataListener
	listeners []StateListener
	stats     Stats
	labels    eventLabels
	bound     boundEvents
}

// eventLabels are the scheduler labels of the node's per-slot events,
// built once so the slot engine does not format a string per event.
type eventLabels struct {
	boundary, tx, listenTimeout, deferredColdStart string
}

// boundEvents are the callbacks of the node's per-slot events, bound once
// in New: a method value made per schedule would allocate every slot.
type boundEvents struct {
	boundary, listenTimeout, tx func()
}

// DataListener receives application payloads from correct N-/X-frames, the
// host-side receive interface.
type DataListener func(slot int, sender cstate.NodeID, data *bitstr.String)

var (
	_ channel.Receiver      = (*Node)(nil)
	_ channel.CarrierSenser = (*Node)(nil)
)

// New builds a node from cfg. The node starts frozen; call Start to bring
// it up.
func New(sched *sim.Scheduler, cfg Config, tracer sim.Tracer) (*Node, error) {
	if err := cfg.validate(); err != nil {
		return nil, err
	}
	cfg = cfg.withDefaults()
	n := &Node{
		cfg:     cfg,
		sched:   sched,
		clock:   sim.NewClock(sched, cfg.Drift),
		tracer:  tracer,
		state:   StateFreeze,
		ownSlot: cfg.Schedule.OwnerSlot(cfg.ID),
		sync:    clocksync.New(cfg.SyncK),
		labels: eventLabels{
			boundary:          fmt.Sprintf("node %v slot boundary", cfg.ID),
			tx:                fmt.Sprintf("node %v tx", cfg.ID),
			listenTimeout:     fmt.Sprintf("node %v listen timeout", cfg.ID),
			deferredColdStart: fmt.Sprintf("node %v deferred cold start", cfg.ID),
		},
	}
	n.bound = boundEvents{boundary: n.slotBoundary, listenTimeout: n.listenTimeoutExpired, tx: n.transmitNow}
	return n, nil
}

// ID returns the node's identity.
func (n *Node) ID() cstate.NodeID { return n.cfg.ID }

// State returns the current protocol state.
func (n *Node) State() State { return n.state }

// CState returns the node's current controller state.
func (n *Node) CState() cstate.CState { return n.cs }

// Slot returns the node's current TDMA slot counter (meaningful only while
// the node is operational).
func (n *Node) Slot() int { return n.slot }

// Counters returns the clique-avoidance counters.
func (n *Node) Counters() membership.Counters { return n.counters }

// Stats returns a snapshot of the node's event counters.
func (n *Node) Stats() Stats { return n.stats }

// Clock exposes the node's local clock (read-only use intended).
func (n *Node) Clock() *sim.Clock { return n.clock }

// SetWire attaches the node's transmitter for channel ch.
func (n *Node) SetWire(ch channel.ID, w channel.Wire) { n.wires[ch] = w }

// SetTxHook installs a transmission interceptor (fault injection).
func (n *Node) SetTxHook(h TxHook) { n.txHook = h }

// SetDataFunc installs the host data provider for N-/X-frame payloads.
// The default sends all-zero payloads.
func (n *Node) SetDataFunc(f func(bits int) *bitstr.String) { n.dataFunc = f }

// OnStateChange registers a listener for protocol state transitions.
func (n *Node) OnStateChange(l StateListener) { n.listeners = append(n.listeners, l) }

// OnData registers a host listener for application data carried by correct
// frames. Only data protected by a correct (C-state-agreeing) CRC is ever
// delivered.
func (n *Node) OnData(l DataListener) { n.dataSinks = append(n.dataSinks, l) }

// Start powers the node on after delay: freeze → init → listen. Staggered
// delays model hosts finishing initialization at different times, the
// nondeterministic startup interleaving of the paper's model.
func (n *Node) Start(delay time.Duration) {
	n.sched.After(delay, fmt.Sprintf("node %v power-on", n.cfg.ID), func() {
		if n.state != StateFreeze {
			return
		}
		n.transition(StateInit, "power-on")
		n.hostTimer = n.sched.After(n.cfg.InitDelay, fmt.Sprintf("node %v init done", n.cfg.ID), func() {
			if n.state == StateInit {
				n.enterListen("init complete")
			}
		})
	})
}

// Wake restarts a frozen node (the host awakening it, §2.2).
func (n *Node) Wake() {
	if n.state != StateFreeze {
		return
	}
	n.Start(0)
}

// HostFreeze is a host-commanded freeze.
func (n *Node) HostFreeze() {
	if n.state == StateFreeze {
		return
	}
	n.freeze("host command")
}

func (n *Node) enterHostState(s State, d time.Duration) {
	if n.state != StateFreeze {
		return
	}
	n.transition(s, "host command")
	n.hostTimer = n.sched.After(d, fmt.Sprintf("node %v %v done", n.cfg.ID, s), func() {
		if n.state == s {
			n.transition(StateFreeze, s.String()+" complete")
		}
	})
}

// transition moves the protocol state machine, enforcing legality.
func (n *Node) transition(to State, reason string) {
	from := n.state
	if from == to {
		return
	}
	if !canTransition(from, to) {
		panic(fmt.Sprintf("node %v: illegal transition %v → %v (%s)", n.cfg.ID, from, to, reason))
	}
	n.state = to
	if to == StateFreeze {
		n.stats.Freezes++
	}
	n.trace("state", "%v → %v (%s)", from, to, reason)
	for _, l := range n.listeners {
		l(n.cfg.ID, from, to, n.sched.Now())
	}
}

// freeze stops all protocol activity.
func (n *Node) freeze(reason string) {
	n.cancelTimers()
	n.transition(StateFreeze, reason)
}

func (n *Node) cancelTimers() {
	for _, e := range [...]sim.Event{n.slotTimer, n.listenTimer, n.hostTimer, n.txTimer} {
		e.Cancel()
	}
	n.clearRxs()
}

func (n *Node) clearRxs() {
	for ch := range n.rxs {
		n.rxs[ch] = n.rxs[ch][:0]
	}
}

func (n *Node) trace(cat, format string, args ...any) {
	if n.tracer == nil {
		return
	}
	n.tracer.Trace(n.sched.Now(), cat, fmt.Sprintf("node %v: %s", n.cfg.ID, fmt.Sprintf(format, args...)))
}

// scheduleAtLocal schedules fn at local time l, clamped to now if l has
// already passed (sub-slot latencies during integration can produce a
// boundary marginally in the past).
func (n *Node) scheduleAtLocal(l sim.LocalTime, name string, fn func()) sim.Event {
	at := n.clock.WhenLocal(l)
	if at < n.sched.Now() {
		at = n.sched.Now()
	}
	return n.sched.At(at, name, fn)
}

// CarrierSense implements channel.CarrierSenser: the controller tracks
// channel activity so the listen state can defer a cold start while a
// frame is in flight (the §4.3 "stays in listen even if the timeout just
// reached zero" rule, which the synchronous model gets for free).
func (n *Node) CarrierSense(ch channel.ID, until sim.Time) {
	if until > n.busyUntil[ch] {
		n.busyUntil[ch] = until
	}
}

// Receive implements channel.Receiver: both cluster channels deliver here.
func (n *Node) Receive(rx channel.Reception) {
	if rx.Origin == n.cfg.ID {
		return // a node does not receive its own transmission
	}
	switch {
	case n.state == StateListen:
		n.listenReceive(rx)
	case n.state.Operational():
		if n.clock.At(rx.Start) < n.slotStartLocal {
			// The transmission started in an earlier (already judged)
			// slot. If it ran into this slot it is interference here;
			// if it merely ended at the boundary it is stale.
			if n.clock.At(rx.End()) > n.slotStartLocal.Add(time.Microsecond) {
				rx.Collided = true
				n.rxs[rx.Channel] = append(n.rxs[rx.Channel], rx)
			}
			return
		}
		n.rxs[rx.Channel] = append(n.rxs[rx.Channel], rx)
	default:
		// freeze/init/await/test/download: deaf to the network
	}
}

// SyncStats exposes clock-synchronization statistics.
func (n *Node) SyncStats() (count int, last, maxAbs time.Duration) { return n.sync.Stats() }
