package experiments

import (
	"context"
	"fmt"
	"time"

	"ttastar/internal/channel"
	"ttastar/internal/cluster"
	"ttastar/internal/cstate"
	"ttastar/internal/frame"
	"ttastar/internal/guardian"
	"ttastar/internal/node"
	"ttastar/internal/sim"
)

// BabblingIdiotCampaign runs the paper's §1 headline fault: a node that
// transmits continuously, regardless of the TDMA schedule. On the bus
// topology the babbler's local guardians share its fate (the
// non-independence argument of [2]): stuck open, they let the babble
// destroy every slot. A central guardian is physically independent and
// confines the babble to the babbler's own slot.
func BabblingIdiotCampaign(ctx context.Context, top cluster.Topology, authority guardian.Authority, runs int, seed uint64) (CampaignCell, error) {
	cell := CampaignCell{
		Label:    fmt.Sprintf("babbling idiot (%s)", describeGuard(top, authority, false)),
		Topology: top,
	}
	const babbler = cstate.NodeID(4)
	verdicts, errs, st, err := RunSeededContext(ctx, cell.Label, runs, seed, func(r int, s RunSeeds) (RunVerdict, error) {
		c, err := cluster.New(cluster.Config{
			Topology:  top,
			Authority: authority,
			Seed:      s.Cluster,
		})
		if err != nil {
			return RunVerdict{}, fmt.Errorf("experiments: babble cluster: %w", err)
		}
		// Nodes 1-3 form the cluster; node 4 is the babbler.
		for i := 1; i <= 3; i++ {
			if err := c.StartNode(cstate.NodeID(i), time.Duration(i)*100*time.Microsecond); err != nil {
				return RunVerdict{}, err
			}
		}
		c.Run(20 * time.Millisecond)
		if c.CountInState(node.StateActive) != 3 {
			return RunVerdict{}, fmt.Errorf("experiments: babble run %d failed to start", r)
		}

		if top == cluster.TopologyBus {
			// The babbling fault takes its non-independent local
			// guardians with it.
			for ch := channel.ID(0); ch < channel.NumChannels; ch++ {
				c.LocalGuardian(babbler, ch).SetFault(guardian.LocalFaultStuckOpen)
			}
		}
		stop := startBabbler(c, babbler, s.RNG)
		c.Run(40 * time.Millisecond)
		stop()

		hf := c.HealthyFreezes(babbler)
		return RunVerdict{
			Disrupted:       hf > 0 || c.CountInState(node.StateActive) < 3,
			HealthyFreezes:  hf,
			GuardianBlocked: guardianBlocked(c),
		}, nil
	})
	cell.reduceVerdicts(verdicts, errs)
	cell.noteStats(st)
	return cell, err
}

// startBabbler transmits noise bursts continuously from the node's
// attachment point, ignoring the schedule entirely.
func startBabbler(c *cluster.Cluster, id cstate.NodeID, rng *sim.RNG) func() {
	stopped := false
	var emit func()
	emit = func() {
		if stopped {
			return
		}
		bits := frame.NewWire(channel.NoiseBits(rng, 40+rng.Intn(80)))
		tx := channel.Transmission{
			Origin:   id,
			Bits:     bits,
			Start:    c.Sched.Now(),
			Duration: c.Schedule.TransmissionTime(bits.Len()),
			Strength: channel.NominalStrength,
		}
		for ch := channel.ID(0); ch < channel.NumChannels; ch++ {
			if w := c.Injector(id, ch); w != nil {
				w.Transmit(tx)
			}
		}
		c.Sched.After(tx.Duration+time.Duration(rng.Range(5_000, 40_000)), "babble", emit)
	}
	emit()
	return func() { stopped = true }
}
