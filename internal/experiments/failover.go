package experiments

// E12 — coupler failover. The star's availability argument rests on the
// duplicated couplers: either channel alone carries the full TDMA
// schedule, so a coupler that goes silent mid-operation must be masked by
// its redundant twin with no healthy-node disruption. This campaign
// silences coupler A at a random phase — once against a steady-state
// cluster and once while a node is integrating — verifies zero
// healthy-node freezes, and measures the worst-case recovery latency in
// slots on the surviving channel.

import (
	"context"
	"fmt"
	"strings"
	"time"

	"ttastar/internal/channel"
	"ttastar/internal/cluster"
	"ttastar/internal/cstate"
	"ttastar/internal/guardian"
	"ttastar/internal/node"
	"ttastar/internal/sim"
	"ttastar/internal/stats"
)

// FailoverResult aggregates one phase of the coupler-failover campaign.
type FailoverResult struct {
	Phase     string
	Authority guardian.Authority
	Runs      int
	// Failures counts runs where the cluster did not stay (or become)
	// all-active on the surviving channel.
	Failures int
	// HealthyFreezes counts §5.1 violations across runs (must be 0: the
	// coupler fault must be masked).
	HealthyFreezes int
	// Disrupted counts runs with any healthy-node freeze or failure.
	Disrupted int
	// RecoverySlots samples the per-run worst-case recovery latency,
	// in TDMA slots, observed on the surviving channel.
	RecoverySlots stats.Sample
	// Health reports the runner's execution tallies.
	Health RunStats
}

// failoverVerdict is one run's outcome; exported fields so a campaign
// checkpoint can round-trip it through JSON. RecoverySlots is -1 when the
// run failed before a recovery latency could be measured (never NaN/Inf,
// which JSON cannot carry).
type failoverVerdict struct {
	Failed        bool    `json:"failed"`
	Freezes       int     `json:"freezes"`
	RecoverySlots float64 `json:"recovery_slots"`
}

// failoverLog watches the surviving channel and records, per node, the
// first clean reception after the fault onset. It is driven from the
// cluster's single-threaded scheduler, so no locking is needed.
type failoverLog struct {
	onset sim.Time
	armed bool
	first map[cstate.NodeID]sim.Time
}

func (l *failoverLog) Receive(rx channel.Reception) {
	if !l.armed || rx.Collided || rx.Origin == cstate.NoNode || rx.Strength < 0.5 {
		return
	}
	if rx.Start < l.onset {
		return
	}
	if _, ok := l.first[rx.Origin]; !ok {
		l.first[rx.Origin] = rx.Start
	}
}

// CouplerFailoverCampaign runs E12: coupler A goes FaultSilence at a
// random phase, in steady state and during a node's integration. The
// redundant coupler B must mask the fault — zero healthy-node freezes —
// and the recovery latency on the surviving channel is sampled.
func CouplerFailoverCampaign(ctx context.Context, authority guardian.Authority, runs int, seed uint64) ([]FailoverResult, error) {
	steady, err := failoverSteady(ctx, authority, runs, seed)
	if err != nil {
		return []FailoverResult{steady}, err
	}
	integ, err := failoverIntegration(ctx, authority, runs, seed)
	return []FailoverResult{steady, integ}, err
}

// silenceCoupler drops every frame on coupler ch from this instant on.
func silenceCoupler(c *cluster.Cluster, ch channel.ID) error {
	return c.Coupler(ch).SetFault(guardian.FaultSilence)
}

// failoverSteady silences coupler A under a fully active cluster. The
// worst-case recovery latency is the slowest node's first clean frame on
// channel B after the onset.
func failoverSteady(ctx context.Context, authority guardian.Authority, runs int, seed uint64) (FailoverResult, error) {
	out := FailoverResult{Phase: "steady state", Authority: authority}
	label := fmt.Sprintf("coupler failover steady (%v)", authority)
	verdicts, errs, st, err := RunSeededContext(ctx, label, runs, seed, func(r int, s RunSeeds) (failoverVerdict, error) {
		c, err := cluster.New(cluster.Config{
			Topology:  cluster.TopologyStar,
			Authority: authority,
			Seed:      s.Cluster,
		})
		if err != nil {
			return failoverVerdict{}, fmt.Errorf("experiments: failover cluster: %w", err)
		}
		c.StartStaggered(100 * time.Microsecond)
		c.Run(20 * time.Millisecond)
		if !c.AllActive() {
			return failoverVerdict{}, fmt.Errorf("experiments: failover run %d failed to start", r)
		}
		log := &failoverLog{first: make(map[cstate.NodeID]sim.Time)}
		c.Medium(channel.ChannelB).Attach(log)
		// Fault onset at a uniformly random phase of the round.
		onset := c.Sched.Now().Add(time.Duration(s.RNG.Int63n(int64(c.Schedule.RoundDuration()))))
		var faultErr error
		c.Sched.At(onset, "silence coupler A", func() {
			log.onset, log.armed = c.Sched.Now(), true
			faultErr = silenceCoupler(c, channel.ChannelA)
		})
		c.Run(100 * time.Millisecond)
		if faultErr != nil {
			return failoverVerdict{}, faultErr
		}
		v := failoverVerdict{Freezes: c.HealthyFreezes(), RecoverySlots: -1}
		if !c.AllActive() || v.Freezes > 0 {
			v.Failed = true
		}
		slotDur := float64(c.Schedule.RoundDuration()) / float64(c.Schedule.NumSlots())
		worst := -1.0
		for _, n := range c.Nodes() {
			at, ok := log.first[n.ID()]
			if !ok {
				// A node never heard from again on the surviving channel
				// is itself a failover failure.
				v.Failed = true
				continue
			}
			if slots := float64(at.Sub(log.onset)) / slotDur; slots > worst {
				worst = slots
			}
		}
		if !v.Failed {
			v.RecoverySlots = worst
		}
		return v, nil
	})
	out.reduceFailover(verdicts, errs, st)
	return out, err
}

// failoverIntegration silences coupler A while node 4 is integrating into
// a running 3-node cluster. Recovery is node 4's power-on-to-active
// latency, which must complete over the surviving channel alone.
func failoverIntegration(ctx context.Context, authority guardian.Authority, runs int, seed uint64) (FailoverResult, error) {
	out := FailoverResult{Phase: "integration", Authority: authority}
	label := fmt.Sprintf("coupler failover integration (%v)", authority)
	verdicts, errs, st, err := RunSeededContext(ctx, label, runs, seed, func(r int, s RunSeeds) (failoverVerdict, error) {
		c, err := cluster.New(cluster.Config{
			Topology:  cluster.TopologyStar,
			Authority: authority,
			Seed:      s.Cluster,
		})
		if err != nil {
			return failoverVerdict{}, fmt.Errorf("experiments: failover cluster: %w", err)
		}
		for i := 1; i <= 3; i++ {
			if err := c.StartNode(cstate.NodeID(i), time.Duration(i)*100*time.Microsecond); err != nil {
				return failoverVerdict{}, err
			}
		}
		c.Run(20 * time.Millisecond)
		if c.CountInState(node.StateActive) != 3 {
			return failoverVerdict{}, fmt.Errorf("experiments: failover run %d failed to start", r)
		}
		round := int64(c.Schedule.RoundDuration())
		// Node 4 powers on at a random phase; coupler A goes silent at a
		// random instant inside the integration window that follows.
		delay := time.Duration(s.RNG.Int63n(round))
		powerOn := c.Sched.Now().Add(delay)
		onset := powerOn.Add(time.Duration(s.RNG.Int63n(round)))
		var faultErr error
		c.Sched.At(onset, "silence coupler A", func() {
			faultErr = silenceCoupler(c, channel.ChannelA)
		})
		if err := c.StartNode(4, delay); err != nil {
			return failoverVerdict{}, err
		}
		c.Run(60 * time.Millisecond)
		if faultErr != nil {
			return failoverVerdict{}, faultErr
		}
		v := failoverVerdict{Freezes: c.HealthyFreezes(), RecoverySlots: -1}
		if !c.AllActive() || v.Freezes > 0 {
			v.Failed = true
			return v, nil
		}
		slotDur := float64(c.Schedule.RoundDuration()) / float64(c.Schedule.NumSlots())
		for _, ev := range c.Events() {
			if ev.Node == 4 && ev.To == node.StateActive {
				v.RecoverySlots = float64(ev.At.Sub(powerOn)) / slotDur
				break
			}
		}
		if v.RecoverySlots < 0 {
			v.Failed = true
		}
		return v, nil
	})
	out.reduceFailover(verdicts, errs, st)
	return out, err
}

// reduceFailover folds verdicts (run-index order) into the aggregate.
func (f *FailoverResult) reduceFailover(vs []failoverVerdict, errs []error, st RunStats) {
	for i, v := range vs {
		if errs[i] != nil {
			continue
		}
		f.Runs++
		f.HealthyFreezes += v.Freezes
		if v.Failed {
			f.Failures++
		}
		if v.Failed || v.Freezes > 0 {
			f.Disrupted++
		}
		if v.RecoverySlots >= 0 {
			f.RecoverySlots.Add(v.RecoverySlots)
		}
	}
	f.Health = st
}

// FormatFailover renders failover results as a table.
func FormatFailover(results []FailoverResult) string {
	var b strings.Builder
	fmt.Fprintf(&b, "%-34s %6s %9s %9s %10s %11s %11s\n",
		"phase", "runs", "failures", "freezes", "disrupted", "mean [slot]", "worst [slot]")
	for _, r := range results {
		fmt.Fprintf(&b, "%-34s %6d %9d %9d %10d %11.2f %11.2f\n",
			fmt.Sprintf("%s (%v)", r.Phase, r.Authority),
			r.Runs, r.Failures, r.HealthyFreezes, r.Disrupted,
			r.RecoverySlots.Mean(), r.RecoverySlots.Max())
	}
	for _, r := range results {
		r.Health.Footer(&b, r.Phase, "runs")
	}
	return b.String()
}
