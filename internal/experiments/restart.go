package experiments

// E14 — restart recovery. Restart-based recovery (Abdi et al., PAPERS.md)
// treats a reboot as a first-class fault-tolerance mechanism: a node that
// loses state must reintegrate into the running TDMA round within a
// bounded deadline. This campaign freezes one random node of a steady
// cluster mid-round (host-commanded freeze, the simulator's reboot), wakes
// it after a random dwell, and measures the wake-to-active reintegration
// latency against the §5-derived bound: init delay, plus at most one full
// round of listening before an I-frame integrates the node, plus at most
// one more round until its own slot confirms it active —
// InitDelay + 2·round.

import (
	"context"
	"fmt"
	"strings"
	"time"

	"ttastar/internal/cluster"
	"ttastar/internal/cstate"
	"ttastar/internal/guardian"
	"ttastar/internal/medl"
	"ttastar/internal/node"
	"ttastar/internal/stats"
)

// RestartResult aggregates the E14 restart-recovery campaign.
type RestartResult struct {
	Authority guardian.Authority
	// Reintegrated is the rate of runs where the rebooted node was active
	// again by the end of the horizon.
	Reintegrated stats.Proportion
	// DeadlineMisses counts reintegrations that finished but took longer
	// than the §5 bound.
	DeadlineMisses int
	// RecoverySlots samples the wake-to-active latency in TDMA slots.
	RecoverySlots stats.Sample
	// BoundSlots is the reintegration deadline in slots
	// ((InitDelay + 2·round)/slot).
	BoundSlots float64
	// HealthyFreezes counts §5.1 violations among the *other* nodes: a
	// reboot of one node must never disrupt the rest of the cluster.
	HealthyFreezes int
	// Health reports the runner's execution tallies.
	Health RunStats
}

// restartVerdict is one run's outcome; exported fields so a campaign
// checkpoint can round-trip it through JSON. RecoverySlots is -1 when the
// node never reintegrated.
type restartVerdict struct {
	Reintegrated  bool    `json:"reintegrated"`
	RecoverySlots float64 `json:"recovery_slots"`
	OtherFreezes  int     `json:"other_freezes"`
}

// RestartRecoveryCampaign runs E14: runs seeded 4-node star clusters each
// reboot one random node at a random phase and measure its reintegration.
func RestartRecoveryCampaign(ctx context.Context, authority guardian.Authority, runs int, seed uint64) (RestartResult, error) {
	out := RestartResult{Authority: authority}
	label := fmt.Sprintf("restart recovery (%v)", authority)
	verdicts, errs, st, err := RunSeededContext(ctx, label, runs, seed, func(r int, s RunSeeds) (restartVerdict, error) {
		c, err := cluster.New(cluster.Config{
			Topology:  cluster.TopologyStar,
			Authority: authority,
			Seed:      s.Cluster,
		})
		if err != nil {
			return restartVerdict{}, fmt.Errorf("experiments: restart cluster: %w", err)
		}
		c.StartStaggered(100 * time.Microsecond)
		c.Run(20 * time.Millisecond)
		if !c.AllActive() {
			return restartVerdict{}, fmt.Errorf("experiments: restart run %d failed to start", r)
		}
		round := int64(c.Schedule.RoundDuration())
		victim := cstate.NodeID(1 + s.RNG.Intn(c.Schedule.NumSlots()))
		// Reboot at a random phase of the round; host holds the node down
		// for a random dwell up to one round before waking it.
		freezeAt := c.Sched.Now().Add(time.Duration(s.RNG.Int63n(round)))
		wakeAt := freezeAt.Add(time.Duration(1 + s.RNG.Int63n(round)))
		c.Sched.At(freezeAt, "host reboot: freeze", func() { c.Node(victim).HostFreeze() })
		c.Sched.At(wakeAt, "host reboot: wake", func() { c.Node(victim).Wake() })
		c.Run(60 * time.Millisecond)

		v := restartVerdict{RecoverySlots: -1, OtherFreezes: c.HealthyFreezes(victim)}
		slotDur := float64(c.Schedule.RoundDuration()) / float64(c.Schedule.NumSlots())
		for _, ev := range c.Events() {
			if ev.Node == victim && ev.To == node.StateActive && ev.At.Sub(wakeAt) >= 0 {
				v.Reintegrated = true
				v.RecoverySlots = float64(ev.At.Sub(wakeAt)) / slotDur
				break
			}
		}
		return v, nil
	})
	// The bound only needs the schedule, identical across runs: init takes
	// one slot (node.Config.InitDelay's default), listening at most one
	// round before an I-frame integrates the node, and at most one more
	// round passes before its own slot confirms it active.
	sched := medl.Default4Node()
	slots := float64(sched.NumSlots())
	out.BoundSlots = 1 + 2*slots
	for i, v := range verdicts {
		if errs[i] != nil {
			continue
		}
		out.Reintegrated.Add(v.Reintegrated)
		out.HealthyFreezes += v.OtherFreezes
		if v.RecoverySlots >= 0 {
			out.RecoverySlots.Add(v.RecoverySlots)
			if v.RecoverySlots > out.BoundSlots {
				out.DeadlineMisses++
			}
		}
	}
	out.Health = st
	return out, err
}

// FormatRestart renders the E14 result as a table.
func FormatRestart(r RestartResult) string {
	var b strings.Builder
	lo, hi := r.Reintegrated.CI95()
	fmt.Fprintf(&b, "%-24s %22s %12s %11s %11s %12s %8s\n",
		"cell", "reintegrated (W95)", "bound [slot]", "mean [slot]", "worst [slot]", "misses", "freezes")
	fmt.Fprintf(&b, "%-24s %9s [%.2f,%.2f] %12.1f %11.2f %11.2f %12d %8d\n",
		fmt.Sprintf("star/%v", r.Authority),
		fmt.Sprintf("%d/%d", r.Reintegrated.Successes, r.Reintegrated.Trials), lo, hi,
		r.BoundSlots, r.RecoverySlots.Mean(), r.RecoverySlots.Max(),
		r.DeadlineMisses, r.HealthyFreezes)
	r.Health.Footer(&b, "", "runs")
	return b.String()
}
