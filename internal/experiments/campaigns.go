package experiments

import (
	"context"
	"fmt"
	"strings"
	"time"

	"ttastar/internal/channel"
	"ttastar/internal/cluster"
	"ttastar/internal/cstate"
	"ttastar/internal/frame"
	"ttastar/internal/guardian"
	"ttastar/internal/node"
	"ttastar/internal/sim"
)

// CampaignCell is one cell of the E10/E11 fault-injection comparison:
// repeated seeded runs of one topology/configuration under one fault type.
type CampaignCell struct {
	Label           string
	Topology        cluster.Topology
	Runs            int
	RunsDisrupted   int // runs with ≥1 healthy-node freeze or regression
	HealthyFreezes  int // total healthy-node freezes across runs
	GuardianBlocked int // frames window-/semantic-blocked by the couplers

	// Execution-health tallies (see RunStats): zero on a clean campaign,
	// so they add nothing to the published tables unless something
	// actually panicked or was cut short.
	Attempts int // simulation attempts executed
	Panics   int // attempts that panicked (recovered in their worker)
	Retried  int // runs that needed a retry on a derived seed stream
	Failed   int // runs abandoned after exhausting retries
	Skipped  int // runs never started because the campaign was cancelled
	// CheckpointRetries counts transient checkpoint-flush failures
	// retried away while this cell's runs recorded.
	CheckpointRetries int
}

// DisruptionRate returns the fraction of runs with healthy-node disruption.
func (c CampaignCell) DisruptionRate() float64 {
	if c.Runs == 0 {
		return 0
	}
	return float64(c.RunsDisrupted) / float64(c.Runs)
}

// RunVerdict is one seeded run's contribution to a CampaignCell.
type RunVerdict struct {
	Disrupted       bool
	HealthyFreezes  int
	GuardianBlocked int
}

// AddRun folds one run's verdict into the cell. Folding is pure addition,
// so reducing verdicts in run-index order gives the same cell however the
// runs were scheduled across workers.
func (c *CampaignCell) AddRun(v RunVerdict) {
	c.Runs++
	if v.Disrupted {
		c.RunsDisrupted++
	}
	c.HealthyFreezes += v.HealthyFreezes
	c.GuardianBlocked += v.GuardianBlocked
}

// reduceVerdicts builds the campaign aggregate from ordered run verdicts,
// folding only runs that completed: skipped and failed slots (non-nil
// errs entries) hold zero values, not verdicts.
func (c *CampaignCell) reduceVerdicts(vs []RunVerdict, errs []error) {
	for i, v := range vs {
		if errs != nil && errs[i] != nil {
			continue
		}
		c.AddRun(v)
	}
}

// noteStats folds the runner's execution-health tallies into the cell.
func (c *CampaignCell) noteStats(st RunStats) {
	c.Attempts += st.Attempts
	c.Panics += st.Panics
	c.Retried += st.Retried
	c.Failed += st.Failed
	c.Skipped += st.Skipped
	c.CheckpointRetries += st.CheckpointRetries
}

// verdictFor reads the standard disruption verdict off a finished run:
// the faulty node is excluded, any healthy-node freeze or startup
// regression counts as disruption.
func verdictFor(c *cluster.Cluster, faulty cstate.NodeID) RunVerdict {
	hf := c.HealthyFreezes(faulty)
	return RunVerdict{
		Disrupted:       hf+c.StartupRegressions(faulty) > 0,
		HealthyFreezes:  hf,
		GuardianBlocked: guardianBlocked(c),
	}
}

// FormatCampaign renders campaign cells as a table.
func FormatCampaign(cells []CampaignCell) string {
	var b strings.Builder
	fmt.Fprintf(&b, "%-34s %-5s %6s %10s %9s %9s\n",
		"configuration", "topo", "runs", "disrupted", "freezes", "blocked")
	for _, c := range cells {
		fmt.Fprintf(&b, "%-34s %-5s %6d %9.0f%% %9d %9d\n",
			c.Label, c.Topology, c.Runs, 100*c.DisruptionRate(), c.HealthyFreezes, c.GuardianBlocked)
	}
	// Health footers only when something went wrong, so clean campaigns
	// render the historical byte-identical tables.
	for _, c := range cells {
		h := RunStats{Attempts: c.Attempts, Panics: c.Panics, Retried: c.Retried, Failed: c.Failed, Skipped: c.Skipped}
		h.Footer(&b, c.Label, "runs")
	}
	return b.String()
}

// perStartMemo caches one drawn value per distinct transmission start, so
// a hook invoked once per channel for the same frame hands both channels
// the identical draw. An explicit drawn flag marks "nothing cached yet" —
// a zero draw is a legitimate value, not a sentinel; treating it as one
// used to redraw per channel and split the marginal signal across
// channels.
func perStartMemo[T any](draw func() T) func(sim.Time) T {
	var last sim.Time
	var val T
	drawn := false
	return func(start sim.Time) T {
		if !drawn || start != last {
			drawn, last = true, start
			val = draw()
		}
		return val
	}
}

// perFrameOffset builds a TxHook that shifts every transmission of a node
// by a marginal timing offset (SOS in the time domain). The hook caches per
// frame so both channels carry the identical marginal signal.
func perFrameOffset(rng *sim.RNG, base, jitter time.Duration) node.TxHook {
	memo := perStartMemo(func() time.Duration {
		return base + time.Duration(rng.Range(-int64(jitter), int64(jitter)))
	})
	return func(_ channel.ID, tx channel.Transmission) (channel.Transmission, bool) {
		tx.Start = tx.Start.Add(memo(tx.Start))
		return tx, true
	}
}

// perFrameStrength builds a TxHook that weakens every transmission to a
// marginal signal strength (SOS in the value domain), cached per frame
// like perFrameOffset.
func perFrameStrength(rng *sim.RNG, base, jitter float64) node.TxHook {
	memo := perStartMemo(func() float64 {
		return base + jitter*(2*rng.Float64()-1)
	})
	return func(_ channel.ID, tx channel.Transmission) (channel.Transmission, bool) {
		tx.Strength = memo(tx.Start)
		return tx, true
	}
}

func guardianBlocked(c *cluster.Cluster) int {
	total := 0
	for ch := channel.ID(0); ch < channel.NumChannels; ch++ {
		g := c.Coupler(ch)
		if g == nil {
			continue
		}
		s := g.Stats()
		total += s.WindowBlocked + s.WrongSlot + s.SemanticBlocked
	}
	return total
}

// sosConfig builds the campaign cluster: staggered receiver hardware
// tolerances are what turn a marginal frame into disagreement.
func sosConfig(top cluster.Topology, authority guardian.Authority, seed uint64) cluster.Config {
	return cluster.Config{
		Topology:  top,
		Authority: authority,
		Seed:      seed,
		NodeTolerances: []time.Duration{
			0, time.Microsecond, 2 * time.Microsecond, 4 * time.Microsecond,
		},
		NodeStrengthThresholds: []float64{0.50, 0.46, 0.54, 0.50},
	}
}

// SOSTimingCampaign runs E10a: node 1 transmits slightly off-specification
// in the time domain; receivers with different hardware tolerances disagree
// about frame validity and the clique machinery expels healthy nodes — on
// a bus. A small-shifting star coupler re-times the marginal frames and
// the disagreement never arises ([7]'s result).
func SOSTimingCampaign(ctx context.Context, top cluster.Topology, authority guardian.Authority, runs int, seed uint64) (CampaignCell, error) {
	cell := CampaignCell{
		Label:    fmt.Sprintf("SOS timing (%s)", describeGuard(top, authority, false)),
		Topology: top,
	}
	verdicts, errs, st, err := RunSeededContext(ctx, cell.Label, runs, seed, func(r int, s RunSeeds) (RunVerdict, error) {
		c, err := cluster.New(sosConfig(top, authority, s.Cluster))
		if err != nil {
			return RunVerdict{}, fmt.Errorf("experiments: SOS timing cluster: %w", err)
		}
		c.StartStaggered(100 * time.Microsecond)
		c.Run(20 * time.Millisecond)
		if !c.AllActive() {
			return RunVerdict{}, fmt.Errorf("experiments: SOS timing run %d failed to start", r)
		}
		// The marginal offset straddles the receivers' acceptance edges
		// (precision 10 µs, tolerances 0–4 µs).
		c.Node(1).SetTxHook(perFrameOffset(s.RNG, 11500*time.Nanosecond, 2*time.Microsecond))
		c.Run(100 * time.Millisecond)
		return verdictFor(c, 1), nil
	})
	cell.reduceVerdicts(verdicts, errs)
	cell.noteStats(st)
	return cell, err
}

// SOSValueCampaign runs E10b: node 1 transmits at marginal signal strength;
// receivers with staggered sensitivity thresholds disagree. A reshaping
// coupler re-drives the signal to nominal strength.
func SOSValueCampaign(ctx context.Context, top cluster.Topology, authority guardian.Authority, runs int, seed uint64) (CampaignCell, error) {
	cell := CampaignCell{
		Label:    fmt.Sprintf("SOS value (%s)", describeGuard(top, authority, false)),
		Topology: top,
	}
	verdicts, errs, st, err := RunSeededContext(ctx, cell.Label, runs, seed, func(r int, s RunSeeds) (RunVerdict, error) {
		c, err := cluster.New(sosConfig(top, authority, s.Cluster))
		if err != nil {
			return RunVerdict{}, fmt.Errorf("experiments: SOS value cluster: %w", err)
		}
		c.StartStaggered(100 * time.Microsecond)
		c.Run(20 * time.Millisecond)
		if !c.AllActive() {
			return RunVerdict{}, fmt.Errorf("experiments: SOS value run %d failed to start", r)
		}
		// Strength straddles the 0.46–0.54 threshold spread.
		c.Node(1).SetTxHook(perFrameStrength(s.RNG, 0.50, 0.03))
		c.Run(100 * time.Millisecond)
		return verdictFor(c, 1), nil
	})
	cell.reduceVerdicts(verdicts, errs)
	cell.noteStats(st)
	return cell, err
}

// MasqueradeCampaign runs E11a: during cluster start-up a faulty device on
// node 4's attachment sends cold-start frames that claim to come from node
// 2 (§2.2's masquerading fault). Local bus guardians cannot check content
// — before synchronization they are open — while a central guardian with
// semantic analysis knows the claimed identity cannot match the physical
// port and blocks the frame.
func MasqueradeCampaign(ctx context.Context, top cluster.Topology, authority guardian.Authority, semantic bool, runs int, seed uint64) (CampaignCell, error) {
	cell := CampaignCell{
		Label:    fmt.Sprintf("masquerade start-up (%s)", describeGuard(top, authority, semantic)),
		Topology: top,
	}
	verdicts, errs, st, err := RunSeededContext(ctx, cell.Label, runs, seed, func(r int, s RunSeeds) (RunVerdict, error) {
		c, err := cluster.New(cluster.Config{
			Topology:         top,
			Authority:        authority,
			SemanticAnalysis: semantic,
			Seed:             s.Cluster,
		})
		if err != nil {
			return RunVerdict{}, fmt.Errorf("experiments: masquerade cluster: %w", err)
		}
		// Nodes 1-3 start; node 4's attachment point hosts the rogue.
		for i := 1; i <= 3; i++ {
			if err := c.StartNode(cstate.NodeID(i), time.Duration(i)*100*time.Microsecond); err != nil {
				return RunVerdict{}, err
			}
		}
		// Rogue cold-start frames claiming node 2, at random times across
		// the start-up window.
		rogue, err := frame.NewColdStart(2, uint16(s.RNG.Intn(100))).Encode()
		if err != nil {
			return RunVerdict{}, err
		}
		bits := frame.NewWire(rogue)
		for k := 0; k < 3; k++ {
			at := sim.Time(600*time.Microsecond) +
				sim.Time(s.RNG.Int63n(int64(3*time.Millisecond))) +
				sim.Time(k)*sim.Time(700*time.Microsecond)
			c.Sched.At(at, "rogue masquerade", func() {
				tx := channel.Transmission{
					Origin:   4,
					Bits:     bits,
					Start:    c.Sched.Now(),
					Duration: c.Schedule.TransmissionTime(bits.Len()),
					Strength: channel.NominalStrength,
				}
				for ch := channel.ID(0); ch < channel.NumChannels; ch++ {
					if w := c.Injector(4, ch); w != nil {
						w.Transmit(tx)
					}
				}
			})
		}
		c.Run(60 * time.Millisecond)
		return verdictFor(c, 4), nil
	})
	cell.reduceVerdicts(verdicts, errs)
	cell.noteStats(st)
	return cell, err
}

// BadCStateCampaign runs E11b: a running cluster's node-1 slot is fed by a
// faulty device transmitting CRC-valid I-frames whose C-state (global
// time) is wrong. Integrated nodes reject them, but a node integrating
// into the running cluster adopts the C-state of the first valid frame it
// receives (§2.2) and, if that frame is the faulty one, is denied
// integration — unless a central guardian's semantic analysis filters the
// frame first.
func BadCStateCampaign(ctx context.Context, top cluster.Topology, authority guardian.Authority, semantic bool, runs int, seed uint64) (CampaignCell, error) {
	cell := CampaignCell{
		Label:    fmt.Sprintf("invalid C-state (%s)", describeGuard(top, authority, semantic)),
		Topology: top,
	}
	verdicts, errs, st, err := RunSeededContext(ctx, cell.Label, runs, seed, func(r int, s RunSeeds) (RunVerdict, error) {
		c, err := cluster.New(cluster.Config{
			Topology:         top,
			Authority:        authority,
			SemanticAnalysis: semantic,
			Seed:             s.Cluster,
		})
		if err != nil {
			return RunVerdict{}, fmt.Errorf("experiments: bad C-state cluster: %w", err)
		}
		// Nodes 2 and 3 form the running cluster; node 1's attachment is
		// the faulty device; node 4 is the late joiner.
		if err := c.StartNode(2, 100*time.Microsecond); err != nil {
			return RunVerdict{}, err
		}
		if err := c.StartNode(3, 200*time.Microsecond); err != nil {
			return RunVerdict{}, err
		}
		c.Run(20 * time.Millisecond)
		if c.CountInState(node.StateActive) != 2 {
			return RunVerdict{}, fmt.Errorf("experiments: bad C-state run %d failed to start", r)
		}

		rogueTracker := attachTracker(c)
		stopRogue := startBadCStateRogue(c, rogueTracker)

		// Node 4 joins at a random phase of the round.
		delay := time.Duration(s.RNG.Int63n(int64(c.Schedule.RoundDuration())))
		if err := c.StartNode(4, delay); err != nil {
			return RunVerdict{}, err
		}
		c.Run(60 * time.Millisecond)
		stopRogue()
		return verdictFor(c, 1), nil
	})
	cell.reduceVerdicts(verdicts, errs)
	cell.noteStats(st)
	return cell, err
}

// attachTracker gives the experiment its own phase view of the cluster by
// listening on channel A, so rogue transmissions can be placed in valid
// slots on either topology.
func attachTracker(c *cluster.Cluster) *guardian.PhaseTracker {
	clock := sim.NewClock(c.Sched, 0)
	tr := guardian.NewPhaseTracker(clock, c.Schedule, 0)
	c.Medium(channel.ChannelA).Attach(trackerAdapter{tr})
	return tr
}

type trackerAdapter struct {
	tr *guardian.PhaseTracker
}

func (a trackerAdapter) Receive(rx channel.Reception) {
	if rx.Collided || rx.Strength < 0.5 {
		return
	}
	a.tr.Observe(rx.Bits, rx.Start)
}

// startBadCStateRogue repeatedly transmits a CRC-valid I-frame with a
// corrupted global time in node 1's slot. It returns a stop function.
func startBadCStateRogue(c *cluster.Cluster, tr *guardian.PhaseTracker) func() {
	stopped := false
	var arm func()
	arm = func() {
		now := c.Sched.Now()
		at, ok := tr.NextSlotStart(now.Add(50*time.Microsecond), 1)
		if !ok {
			c.Sched.After(c.Schedule.RoundDuration(), "rogue retry", func() {
				if !stopped {
					arm()
				}
			})
			return
		}
		action := at.Add(c.Schedule.Slot(1).ActionOffset)
		c.Sched.At(action, "rogue bad C-state", func() {
			if stopped {
				return
			}
			gt, _ := tr.GlobalTimeAt(c.Sched.Now())
			cs := cstate.CState{
				GlobalTime: gt + 9, // corrupted controller state
				RoundSlot:  1,
				Membership: cstate.Membership(0).With(1).With(2).With(3),
			}
			rogue, err := frame.NewI(1, cs).Encode()
			if err != nil {
				return
			}
			bits := frame.NewWire(rogue)
			tx := channel.Transmission{
				Origin:   1,
				Bits:     bits,
				Start:    c.Sched.Now(),
				Duration: c.Schedule.TransmissionTime(bits.Len()),
				Strength: channel.NominalStrength,
			}
			for ch := channel.ID(0); ch < channel.NumChannels; ch++ {
				if w := c.Injector(1, ch); w != nil {
					w.Transmit(tx)
				}
			}
			arm()
		})
	}
	arm()
	return func() { stopped = true }
}

func describeGuard(top cluster.Topology, authority guardian.Authority, semantic bool) string {
	if top == cluster.TopologyBus {
		return "bus, local guardians"
	}
	s := "star, " + authority.String()
	if semantic {
		s += " + semantic"
	}
	return s
}
