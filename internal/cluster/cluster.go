// Package cluster assembles complete TTA clusters: TTP/C nodes wired to two
// redundant channels in either the bus topology (per-node local guardians,
// Figure 1 of the paper) or the star topology (central guardians in the
// star couplers, Figure 2). It provides the observers the experiment
// harnesses use: state-change logs, healthy-freeze counters, and startup
// progress checks.
package cluster

import (
	"errors"
	"fmt"
	"time"

	"ttastar/internal/channel"
	"ttastar/internal/cstate"
	"ttastar/internal/guardian"
	"ttastar/internal/medl"
	"ttastar/internal/node"
	"ttastar/internal/sim"
)

// Topology selects the cluster interconnect.
type Topology uint8

// The two TTA topologies.
const (
	// TopologyBus is the classic layout: two shared buses, one local bus
	// guardian per node per channel.
	TopologyBus Topology = iota + 1
	// TopologyStar replaces each bus by a star coupler acting as central
	// bus guardian.
	TopologyStar
)

// String names the topology.
func (t Topology) String() string {
	switch t {
	case TopologyBus:
		return "bus"
	case TopologyStar:
		return "star"
	default:
		return fmt.Sprintf("Topology(%d)", uint8(t))
	}
}

// Config parameterizes a cluster build.
type Config struct {
	// Topology selects bus or star; default star.
	Topology Topology
	// Schedule is the MEDL; default the paper's 4-node I-frame schedule.
	Schedule *medl.Schedule
	// Authority is the star couplers' feature set; default small shifting.
	Authority guardian.Authority
	// SemanticAnalysis enables the couplers' content filtering.
	SemanticAnalysis bool
	// BufferBits overrides the couplers' forwarding-buffer capacity
	// (0 = authority-specific default).
	BufferBits int
	// Couplers is the number of replicated channels actually populated
	// (star couplers, or guardian/bus pairs on the bus topology); default
	// and maximum channel.NumChannels. With Couplers == 1 the cluster
	// loses channel redundancy: nodes transmit and receive on channel A
	// only, which is the degraded single-channel configuration of §2.
	Couplers int
	// NodeDrifts gives per-node oscillator deviations (indexed by node-1);
	// missing entries are perfect clocks.
	NodeDrifts []sim.PPB
	// GuardianDrifts gives the two couplers' (or all local guardians')
	// oscillator deviations.
	GuardianDrifts [channel.NumChannels]sim.PPB
	// NodeTolerances gives per-node receiver timing tolerances (SOS
	// disagreement comes from differences here).
	NodeTolerances []time.Duration
	// NodeStrengthThresholds gives per-node receiver sensitivity
	// thresholds (SOS value-domain disagreement comes from differences
	// here); missing entries use the 0.5 default.
	NodeStrengthThresholds []float64
	// Seed feeds the deterministic RNG used for noise generation.
	Seed uint64
	// Record enables the trace recorder.
	Record bool
}

// StateEvent is one protocol state change observed in the cluster.
type StateEvent struct {
	At   sim.Time
	Node cstate.NodeID
	From node.State
	To   node.State
}

// Cluster is a runnable TTA cluster.
type Cluster struct {
	Sched    *sim.Scheduler
	Schedule *medl.Schedule
	Recorder *sim.Recorder

	nodes    []*node.Node
	couplers [channel.NumChannels]*guardian.Central
	locals   map[cstate.NodeID][channel.NumChannels]*guardian.Local
	media    [channel.NumChannels]*channel.Medium
	topology Topology
	channels channel.ID
	rng      *sim.RNG
	events   []StateEvent
}

// New builds a cluster from cfg.
func New(cfg Config) (*Cluster, error) {
	if cfg.Topology == 0 {
		cfg.Topology = TopologyStar
	}
	if cfg.Schedule == nil {
		cfg.Schedule = medl.Default4Node()
	}
	if err := cfg.Schedule.Validate(); err != nil {
		return nil, fmt.Errorf("cluster: invalid schedule: %w", err)
	}
	if cfg.Authority == 0 {
		cfg.Authority = guardian.AuthoritySmallShift
	}
	if cfg.Couplers == 0 {
		cfg.Couplers = int(channel.NumChannels)
	}
	if cfg.Couplers < 1 || cfg.Couplers > int(channel.NumChannels) {
		return nil, fmt.Errorf("cluster: %d couplers, want 1..%d", cfg.Couplers, channel.NumChannels)
	}

	c := &Cluster{
		Sched:    sim.NewScheduler(),
		Schedule: cfg.Schedule,
		topology: cfg.Topology,
		channels: channel.ID(cfg.Couplers),
		rng:      sim.NewRNG(cfg.Seed + 1),
		locals:   make(map[cstate.NodeID][channel.NumChannels]*guardian.Local),
	}
	if cfg.Record {
		c.Recorder = sim.NewRecorder()
	}
	var tracer sim.Tracer
	if c.Recorder != nil {
		tracer = c.Recorder
	}

	for ch := channel.ID(0); ch < c.channels; ch++ {
		c.media[ch] = channel.NewMedium(c.Sched, ch, ch.String())
	}

	switch cfg.Topology {
	case TopologyStar:
		for ch := channel.ID(0); ch < c.channels; ch++ {
			g, err := guardian.NewCentral(c.Sched, guardian.CentralConfig{
				Name:             fmt.Sprintf("coupler%d", ch),
				Authority:        cfg.Authority,
				Schedule:         cfg.Schedule,
				Drift:            cfg.GuardianDrifts[ch],
				BufferBits:       cfg.BufferBits,
				SemanticAnalysis: cfg.SemanticAnalysis,
			}, c.media[ch], c.rng.Split(), tracer)
			if err != nil {
				return nil, fmt.Errorf("cluster: coupler %d: %w", ch, err)
			}
			c.couplers[ch] = g
		}
	case TopologyBus:
		// Local guardians attach per node below.
	default:
		return nil, fmt.Errorf("cluster: unknown topology %d", cfg.Topology)
	}

	for i := 1; i <= cfg.Schedule.NumSlots(); i++ {
		id := cfg.Schedule.Slot(i).Owner
		nodeCfg := node.DefaultFor(id, cfg.Schedule)
		if len(cfg.NodeDrifts) >= i {
			nodeCfg.Drift = cfg.NodeDrifts[i-1]
		}
		if len(cfg.NodeTolerances) >= i {
			nodeCfg.TimingTolerance = cfg.NodeTolerances[i-1]
		}
		if len(cfg.NodeStrengthThresholds) >= i && cfg.NodeStrengthThresholds[i-1] != 0 {
			nodeCfg.StrengthThreshold = cfg.NodeStrengthThresholds[i-1]
		}
		if cfg.Topology == TopologyStar {
			nodeCfg.DelayCorrection = guardian.ForwardLatency(cfg.Authority, cfg.Schedule, 0)
		}
		n, err := node.New(c.Sched, nodeCfg, tracer)
		if err != nil {
			return nil, fmt.Errorf("cluster: node %v: %w", id, err)
		}
		n.OnStateChange(func(id cstate.NodeID, from, to node.State, at sim.Time) {
			c.events = append(c.events, StateEvent{At: at, Node: id, From: from, To: to})
		})

		switch cfg.Topology {
		case TopologyStar:
			for ch := channel.ID(0); ch < c.channels; ch++ {
				n.SetWire(ch, c.couplers[ch].InputPort(id))
				c.media[ch].Attach(n)
			}
		case TopologyBus:
			var pair [channel.NumChannels]*guardian.Local
			for ch := channel.ID(0); ch < c.channels; ch++ {
				g, err := guardian.NewLocal(c.Sched, guardian.LocalConfig{
					Node:     id,
					Schedule: cfg.Schedule,
					Drift:    cfg.GuardianDrifts[ch],
				}, c.media[ch], tracer)
				if err != nil {
					return nil, fmt.Errorf("cluster: local guardian %v/%d: %w", id, ch, err)
				}
				n.SetWire(ch, g)
				c.media[ch].Attach(n)
				c.media[ch].Attach(g)
				pair[ch] = g
			}
			c.locals[id] = pair
		}
		c.nodes = append(c.nodes, n)
	}
	return c, nil
}

// Topology returns the cluster interconnect type.
func (c *Cluster) Topology() Topology { return c.topology }

// Channels returns the number of populated channels; Coupler, Medium and
// LocalGuardian return nil for ids at or beyond it.
func (c *Cluster) Channels() channel.ID { return c.channels }

// Nodes returns the cluster nodes in slot order.
func (c *Cluster) Nodes() []*node.Node { return c.nodes }

// Node returns the node with the given id, or nil.
func (c *Cluster) Node(id cstate.NodeID) *node.Node {
	for _, n := range c.nodes {
		if n.ID() == id {
			return n
		}
	}
	return nil
}

// Coupler returns the star coupler of channel ch (nil on a bus cluster).
func (c *Cluster) Coupler(ch channel.ID) *guardian.Central { return c.couplers[ch] }

// LocalGuardian returns node id's guardian on channel ch (nil on a star
// cluster).
func (c *Cluster) LocalGuardian(id cstate.NodeID, ch channel.ID) *guardian.Local {
	pair, ok := c.locals[id]
	if !ok {
		return nil
	}
	return pair[ch]
}

// Medium returns the channel-ch broadcast medium (the bus itself, or the
// star's distribution side).
func (c *Cluster) Medium(ch channel.ID) *channel.Medium { return c.media[ch] }

// Injector returns the wire a (possibly faulty) device attached as node id
// would transmit into on channel ch: the node's star-coupler input port, or
// its local guardian on the bus. Fault campaigns use it to inject rogue
// traffic with the correct physical identity.
func (c *Cluster) Injector(id cstate.NodeID, ch channel.ID) channel.Wire {
	switch c.topology {
	case TopologyStar:
		return c.couplers[ch].InputPort(id)
	case TopologyBus:
		return c.LocalGuardian(id, ch)
	default:
		return nil
	}
}

// StartStaggered powers nodes on gap apart, in slot order. Staggered
// power-on is the normal situation the startup algorithm must handle.
func (c *Cluster) StartStaggered(gap time.Duration) {
	for i, n := range c.nodes {
		n.Start(time.Duration(i) * gap)
	}
}

// StartNode powers on a single node after delay.
func (c *Cluster) StartNode(id cstate.NodeID, delay time.Duration) error {
	n := c.Node(id)
	if n == nil {
		return errors.New("cluster: no such node")
	}
	n.Start(delay)
	return nil
}

// Run advances the simulation by d.
func (c *Cluster) Run(d time.Duration) {
	c.Sched.RunUntil(c.Sched.Now().Add(d))
}

// RunUntil steps the simulation until cond holds or maxDur elapses; it
// reports whether cond was met. No event later than the deadline fires:
// when the next one is, time stops at the deadline and cond has not held.
// An empty queue stops the run where it is.
func (c *Cluster) RunUntil(maxDur time.Duration, cond func() bool) bool {
	deadline := c.Sched.Now().Add(maxDur)
	for !cond() {
		at, ok := c.Sched.NextAt()
		if !ok {
			return false
		}
		if at > deadline {
			c.Sched.RunUntil(deadline)
			return false
		}
		c.Sched.Step()
	}
	return true
}

// Events returns the recorded protocol state changes.
func (c *Cluster) Events() []StateEvent {
	out := make([]StateEvent, len(c.events))
	copy(out, c.events)
	return out
}

// CountInState returns how many nodes are currently in state s.
func (c *Cluster) CountInState(s node.State) int {
	count := 0
	for _, n := range c.nodes {
		if n.State() == s {
			count++
		}
	}
	return count
}

// AllActive reports whether every node reached the active state.
func (c *Cluster) AllActive() bool {
	return c.CountInState(node.StateActive) == len(c.nodes)
}

// HealthyFreezes counts transitions of integrated (active/passive) nodes
// into freeze, excluding the listed (deliberately faulty) nodes. This is
// the §5.1 correctness property rendered as an observable: for a healthy
// cluster with at most one coupler fault it must be zero unless the
// coupler may buffer whole frames.
func (c *Cluster) HealthyFreezes(exclude ...cstate.NodeID) int {
	skip := make(map[cstate.NodeID]bool, len(exclude))
	for _, id := range exclude {
		skip[id] = true
	}
	count := 0
	for _, e := range c.events {
		if skip[e.Node] {
			continue
		}
		if e.From.Integrated() && e.To == node.StateFreeze {
			count++
		}
	}
	return count
}

// StartupRegressions counts nodes thrown back from cold_start to listen —
// the startup-denial effect replayed cold-start frames cause.
func (c *Cluster) StartupRegressions(exclude ...cstate.NodeID) int {
	skip := make(map[cstate.NodeID]bool, len(exclude))
	for _, id := range exclude {
		skip[id] = true
	}
	count := 0
	for _, e := range c.events {
		if skip[e.Node] {
			continue
		}
		if e.From == node.StateColdStart && e.To == node.StateListen {
			count++
		}
	}
	return count
}

// Disruptions is HealthyFreezes plus StartupRegressions: any event where
// the protocol denied a healthy node service.
func (c *Cluster) Disruptions(exclude ...cstate.NodeID) int {
	return c.HealthyFreezes(exclude...) + c.StartupRegressions(exclude...)
}
