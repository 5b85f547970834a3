package experiments

import (
	"context"
	"fmt"
	"strings"
	"time"

	"ttastar/internal/cluster"
	"ttastar/internal/guardian"
	"ttastar/internal/stats"
)

// StartupResult summarizes the startup-latency experiment: time from first
// power-on until every node is active, across randomized power-on orders.
type StartupResult struct {
	Topology  cluster.Topology
	Authority guardian.Authority
	// Latency is the time-to-all-active sample in milliseconds.
	Latency stats.Sample
	// Failures counts runs that never reached all-active (must be 0).
	Failures int
	// HealthyFreezes counts §5.1 property violations (must be 0: these
	// are fault-free runs).
	HealthyFreezes int
	// Retries counts cold_start → listen regressions: *legal* protocol
	// behaviour when power-on races make cold starters collide; the
	// startup algorithm backs off and retries.
	Retries int
	// Health reports the runner's execution tallies (attempts, panics,
	// retried/failed/skipped runs); all-zero except Attempts on a clean
	// sweep.
	Health RunStats
}

// startupVerdict is one run's outcome. Fields are exported so a campaign
// checkpoint can round-trip it through JSON.
type startupVerdict struct {
	Failed    bool    `json:"failed"`
	LatencyMS float64 `json:"latency_ms"`
	Freezes   int     `json:"freezes"`
	Retries   int     `json:"retries"`
}

// StartupLatency measures fault-free startup across randomized staggered
// power-on times. Besides producing the latency distribution, it is a
// robustness sweep: every run must converge with no node disrupted,
// whatever the power-on interleaving (the nondeterminism the model checker
// explores exhaustively, sampled here in the timed world).
func StartupLatency(ctx context.Context, top cluster.Topology, authority guardian.Authority, runs int, seed uint64) (StartupResult, error) {
	out := StartupResult{Topology: top, Authority: authority}
	label := fmt.Sprintf("startup latency (%v, %v)", top, authority)
	verdicts, errs, st, err := RunSeededContext(ctx, label, runs, seed, func(r int, s RunSeeds) (startupVerdict, error) {
		c, err := cluster.New(cluster.Config{
			Topology:  top,
			Authority: authority,
			Seed:      s.Cluster,
		})
		if err != nil {
			return startupVerdict{}, fmt.Errorf("experiments: startup cluster: %w", err)
		}
		// Random power-on order and spacing, up to two rounds apart.
		span := int64(2 * c.Schedule.RoundDuration())
		for _, n := range c.Nodes() {
			n.Start(time.Duration(s.RNG.Int63n(span)))
		}
		if !c.RunUntil(500*time.Millisecond, c.AllActive) {
			return startupVerdict{Failed: true}, nil
		}
		return startupVerdict{
			LatencyMS: float64(c.Sched.Now()) / 1e6,
			Freezes:   c.HealthyFreezes(),
			Retries:   c.StartupRegressions(),
		}, nil
	})
	// Reduce in run-index order: out.Latency is identical to the sample a
	// serial loop would have built. Skipped/failed slots carry no verdict.
	for i, v := range verdicts {
		if errs[i] != nil {
			continue
		}
		if v.Failed {
			out.Failures++
			continue
		}
		out.Latency.Add(v.LatencyMS)
		out.HealthyFreezes += v.Freezes
		out.Retries += v.Retries
	}
	out.Health = st
	return out, err
}

// FormatStartup renders startup-latency results as a table.
func FormatStartup(results []StartupResult) string {
	var b strings.Builder
	fmt.Fprintf(&b, "%-28s %6s %12s %12s %12s %9s %8s\n",
		"configuration", "runs", "mean [ms]", "min [ms]", "max [ms]", "failures", "retries")
	for _, r := range results {
		fmt.Fprintf(&b, "%-28s %6d %12.2f %12.2f %12.2f %9d %8d\n",
			fmt.Sprintf("%v / %v", r.Topology, r.Authority),
			r.Latency.N()+r.Failures, r.Latency.Mean(), r.Latency.Min(), r.Latency.Max(), r.Failures, r.Retries)
	}
	for _, r := range results {
		r.Health.Footer(&b, fmt.Sprintf("%v / %v", r.Topology, r.Authority), "runs")
	}
	return b.String()
}
