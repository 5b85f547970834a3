package experiments

// E13 — drift-adversary clock-sync stress. The Byzantine/self-stabilizing
// clock-sync line of work (WALDEN, PAPERS.md) asks how much oscillator
// disagreement a TDMA cluster survives. This campaign sweeps the cluster's
// oscillator spread: at each drift level half the nodes run fast and half
// slow (the worst-case Δ split of eq. (5)), and each seeded run measures
// whether the cluster still starts and stays synchronized, how often the
// sync algorithm corrects, and the worst correction it ever applies.
// The all-active cell is a rate, so it carries a Wilson interval
// (stats.Proportion), not a normal-approximation one.

import (
	"context"
	"fmt"
	"strings"
	"time"

	"ttastar/internal/cluster"
	"ttastar/internal/guardian"
	"ttastar/internal/sim"
	"ttastar/internal/stats"
)

// DriftStressResult aggregates one drift level of the E13 campaign.
type DriftStressResult struct {
	Topology  cluster.Topology
	Authority guardian.Authority
	// DriftPPM is the oscillator deviation magnitude: node i runs at
	// +DriftPPM for even i, −DriftPPM for odd i.
	DriftPPM float64
	// AllActive is the rate of runs that reached and kept every node
	// active for the whole horizon.
	AllActive stats.Proportion
	// HealthyFreezes counts §5.1 violations across runs.
	HealthyFreezes int
	// Resyncs samples the per-run total clock-correction count.
	Resyncs stats.Sample
	// WorstCorrectionUS samples the per-run worst absolute clock
	// correction in microseconds — the observable that approaches the
	// precision Π as the drift spread approaches the sync limit.
	WorstCorrectionUS stats.Sample
	// Health reports the runner's execution tallies.
	Health RunStats
}

// driftVerdict is one run's outcome; exported fields so a campaign
// checkpoint can round-trip it through JSON.
type driftVerdict struct {
	AllActive    bool    `json:"all_active"`
	Freezes      int     `json:"freezes"`
	Resyncs      int     `json:"resyncs"`
	WorstCorrUS  float64 `json:"worst_corr_us"`
	Integrations int     `json:"integrations"`
}

// DriftStressCampaign runs E13 at each drift level in ppms: runs seeded
// clusters with an adversarial ±ppm oscillator split, measuring startup
// success, §5.1 violations and clock-sync effort.
func DriftStressCampaign(ctx context.Context, top cluster.Topology, authority guardian.Authority, ppms []float64, runs int, seed uint64) ([]DriftStressResult, error) {
	results := make([]DriftStressResult, 0, len(ppms))
	for _, ppm := range ppms {
		r, err := driftStressLevel(ctx, top, authority, ppm, runs, seed)
		if r.AllActive.Trials > 0 || err == nil {
			results = append(results, r)
		}
		if err != nil {
			return results, err
		}
	}
	return results, nil
}

func driftStressLevel(ctx context.Context, top cluster.Topology, authority guardian.Authority, ppm float64, runs int, seed uint64) (DriftStressResult, error) {
	out := DriftStressResult{Topology: top, Authority: authority, DriftPPM: ppm}
	label := fmt.Sprintf("drift stress (%v, %v, %gppm)", top, authority, ppm)
	verdicts, errs, st, err := RunSeededContext(ctx, label, runs, seed, func(r int, s RunSeeds) (driftVerdict, error) {
		const nodes = 4
		drifts := make([]sim.PPB, nodes)
		for i := range drifts {
			d := sim.PPM(ppm)
			if i%2 == 1 {
				d = -d
			}
			drifts[i] = d
		}
		c, err := cluster.New(cluster.Config{
			Topology:   top,
			Authority:  authority,
			NodeDrifts: drifts,
			Seed:       s.Cluster,
		})
		if err != nil {
			return driftVerdict{}, fmt.Errorf("experiments: drift cluster: %w", err)
		}
		// Randomized staggered power-on inside one round, like E-startup:
		// the drift adversary must not get to pick a friendly interleaving.
		round := int64(c.Schedule.RoundDuration())
		for _, n := range c.Nodes() {
			n.Start(time.Duration(s.RNG.Int63n(round)))
		}
		c.Run(100 * time.Millisecond)
		v := driftVerdict{
			AllActive: c.AllActive(),
			Freezes:   c.HealthyFreezes(),
		}
		for _, n := range c.Nodes() {
			count, _, maxAbs := n.SyncStats()
			v.Resyncs += count
			if us := float64(maxAbs) / float64(time.Microsecond); us > v.WorstCorrUS {
				v.WorstCorrUS = us
			}
			v.Integrations += n.Stats().Integrations
		}
		return v, nil
	})
	for i, v := range verdicts {
		if errs[i] != nil {
			continue
		}
		out.AllActive.Add(v.AllActive)
		out.HealthyFreezes += v.Freezes
		out.Resyncs.Add(float64(v.Resyncs))
		out.WorstCorrectionUS.Add(v.WorstCorrUS)
	}
	out.Health = st
	return out, err
}

// FormatDriftStress renders E13 results as a table.
func FormatDriftStress(results []DriftStressResult) string {
	var b strings.Builder
	fmt.Fprintf(&b, "%-26s %10s %22s %8s %12s %14s\n",
		"cell", "drift", "all-active (Wilson95)", "freezes", "resyncs", "worst corr")
	for _, r := range results {
		lo, hi := r.AllActive.CI95()
		fmt.Fprintf(&b, "%-26s %7g ppm %9s [%.2f,%.2f] %8d %12.1f %11.2f µs\n",
			fmt.Sprintf("%v/%v", r.Topology, r.Authority), r.DriftPPM,
			fmt.Sprintf("%d/%d", r.AllActive.Successes, r.AllActive.Trials), lo, hi,
			r.HealthyFreezes, r.Resyncs.Mean(), r.WorstCorrectionUS.Max())
	}
	for _, r := range results {
		r.Health.Footer(&b, fmt.Sprintf("%gppm", r.DriftPPM), "runs")
	}
	return b.String()
}
