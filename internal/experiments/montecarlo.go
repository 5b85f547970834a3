package experiments

// Monte-Carlo failure-rate sweep. Probabilistic safety evaluation on TDMA
// (Simonot et al., PAPERS.md) asks for dependability as a function of the
// channel fault *rate*, not of a single worst-case fault. This campaign
// sweeps a per-slot fault probability p: in every TDMA slot of the
// measurement horizon, with probability p one randomly chosen star coupler
// exhibits a transient fault (silence or bad-frame, cleared at the slot
// end). Unlike E12's single permanent fault, sustained transients can
// violate the single-fault hypothesis — two couplers can fail in adjacent
// slots — so the disruption probability rises from 0 toward 1 across the
// sweep, and each cell is a Bernoulli rate reported with a Wilson 95%
// interval (stats.Proportion), which stays inside [0,1] at both edges
// where the normal approximation does not.

import (
	"context"
	"fmt"
	"strings"
	"time"

	"ttastar/internal/channel"
	"ttastar/internal/cluster"
	"ttastar/internal/guardian"
	"ttastar/internal/stats"
)

// MonteCarloResult aggregates one fault-probability level of the sweep.
type MonteCarloResult struct {
	Authority guardian.Authority
	// PerSlotFaultProb is p: the probability that any given slot of the
	// horizon carries a transient coupler fault.
	PerSlotFaultProb float64
	// Disrupted is the rate of runs with at least one healthy-node
	// disruption (freeze or startup regression) during the horizon.
	Disrupted stats.Proportion
	// FaultsInjected samples the per-run number of transient faults.
	FaultsInjected stats.Sample
	// HealthyFreezes totals §5.1 violations across runs.
	HealthyFreezes int
	// Health reports the runner's execution tallies.
	Health RunStats
}

// mcVerdict is one run's outcome; exported fields so a campaign checkpoint
// can round-trip it through JSON.
type mcVerdict struct {
	Disrupted bool `json:"disrupted"`
	Faults    int  `json:"faults"`
	Freezes   int  `json:"freezes"`
}

// mcHorizonRounds is the measurement horizon in TDMA rounds.
const mcHorizonRounds = 50

// MonteCarloCampaign sweeps the per-slot transient-fault probability over
// probs, with runs seeded replicas per level on a steady 4-node star
// cluster.
func MonteCarloCampaign(ctx context.Context, authority guardian.Authority, probs []float64, runs int, seed uint64) ([]MonteCarloResult, error) {
	results := make([]MonteCarloResult, 0, len(probs))
	for _, p := range probs {
		r, err := monteCarloLevel(ctx, authority, p, runs, seed)
		if r.Disrupted.Trials > 0 || err == nil {
			results = append(results, r)
		}
		if err != nil {
			return results, err
		}
	}
	return results, nil
}

func monteCarloLevel(ctx context.Context, authority guardian.Authority, p float64, runs int, seed uint64) (MonteCarloResult, error) {
	out := MonteCarloResult{Authority: authority, PerSlotFaultProb: p}
	label := fmt.Sprintf("monte carlo (%v, p=%g)", authority, p)
	verdicts, errs, st, err := RunSeededContext(ctx, label, runs, seed, func(r int, s RunSeeds) (mcVerdict, error) {
		c, err := cluster.New(cluster.Config{
			Topology:  cluster.TopologyStar,
			Authority: authority,
			Seed:      s.Cluster,
		})
		if err != nil {
			return mcVerdict{}, fmt.Errorf("experiments: monte carlo cluster: %w", err)
		}
		c.StartStaggered(100 * time.Microsecond)
		c.Run(20 * time.Millisecond)
		if !c.AllActive() {
			return mcVerdict{}, fmt.Errorf("experiments: monte carlo run %d failed to start", r)
		}
		// Pre-draw the whole horizon's fault schedule so the injected
		// pattern is a pure function of the run's seed stream: in each
		// slot, with probability p, one random coupler turns silent or
		// babbles for exactly that slot.
		v := mcVerdict{}
		base := c.Sched.Now()
		slotDur := c.Schedule.RoundDuration() / time.Duration(c.Schedule.NumSlots())
		slots := mcHorizonRounds * c.Schedule.NumSlots()
		var faultErr error
		for i := 0; i < slots; i++ {
			if s.RNG.Float64() >= p {
				continue
			}
			v.Faults++
			ch := channel.ID(s.RNG.Intn(int(c.Channels())))
			mode := guardian.FaultSilence
			if s.RNG.Bool() {
				mode = guardian.FaultBadFrame
			}
			at := base.Add(time.Duration(i) * slotDur)
			c.Sched.At(at, "mc transient fault", func() {
				if err := c.Coupler(ch).SetFault(mode); err != nil && faultErr == nil {
					faultErr = err
				}
			})
			c.Sched.At(at.Add(slotDur), "mc transient clear", func() {
				c.Coupler(ch).ClearFault()
			})
		}
		c.Run(time.Duration(mcHorizonRounds)*c.Schedule.RoundDuration() + 10*time.Millisecond)
		if faultErr != nil {
			return mcVerdict{}, faultErr
		}
		v.Freezes = c.HealthyFreezes()
		v.Disrupted = c.Disruptions() > 0
		return v, nil
	})
	for i, v := range verdicts {
		if errs[i] != nil {
			continue
		}
		out.Disrupted.Add(v.Disrupted)
		out.FaultsInjected.Add(float64(v.Faults))
		out.HealthyFreezes += v.Freezes
	}
	out.Health = st
	return out, err
}

// FormatMonteCarlo renders the sweep as a table.
func FormatMonteCarlo(results []MonteCarloResult) string {
	var b strings.Builder
	fmt.Fprintf(&b, "%-20s %10s %12s %24s %9s\n",
		"cell", "p/slot", "faults/run", "disrupted (Wilson95)", "freezes")
	for _, r := range results {
		lo, hi := r.Disrupted.CI95()
		fmt.Fprintf(&b, "%-20s %10g %12.1f %11s [%.2f,%.2f] %9d\n",
			fmt.Sprintf("star/%v", r.Authority), r.PerSlotFaultProb,
			r.FaultsInjected.Mean(),
			fmt.Sprintf("%d/%d", r.Disrupted.Successes, r.Disrupted.Trials), lo, hi,
			r.HealthyFreezes)
	}
	for _, r := range results {
		r.Health.Footer(&b, fmt.Sprintf("p=%g", r.PerSlotFaultProb), "runs")
	}
	return b.String()
}
