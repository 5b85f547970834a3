package experiments

// Functions only the tests call.

import (
	"context"
	"fmt"

	"ttastar/internal/analysis"
)

// Merge folds another cell's tallies into c, so shards of one campaign
// cell (same label/topology) aggregated separately can be combined:
// AddRun and Merge commute with any associative grouping of the runs.
func (c *CampaignCell) Merge(o CampaignCell) {
	c.Runs += o.Runs
	c.RunsDisrupted += o.RunsDisrupted
	c.HealthyFreezes += o.HealthyFreezes
	c.GuardianBlocked += o.GuardianBlocked
	c.Attempts += o.Attempts
	c.Panics += o.Panics
	c.Retried += o.Retried
	c.Failed += o.Failed
	c.Skipped += o.Skipped
	c.CheckpointRetries += o.CheckpointRetries
}

// Figure3Curves computes the E7 series: the eq. (10) curve for several
// minimum frame sizes (le = 4, as in the figure).
func Figure3Curves(fMins []int, fMaxHi, step int) (map[int][]analysis.RatioPoint, error) {
	out := make(map[int][]analysis.RatioPoint, len(fMins))
	for _, fMin := range fMins {
		series, err := analysis.Figure3Series(fMin, analysis.PaperLineEncodingBits, fMin, fMaxHi, step)
		if err != nil {
			return nil, fmt.Errorf("experiments: figure 3 series for f_min=%d: %w", fMin, err)
		}
		out[fMin] = series
	}
	return out, nil
}

// RunSeeded is RunSeededContext without cancellation or health tracking:
// it fails on the lowest-indexed per-run error of any kind, preserving
// the historical all-or-nothing contract for callers that want it.
func RunSeeded[T any](label string, runs int, base uint64, runOne func(r int, s RunSeeds) (T, error)) ([]T, error) {
	out, errs, _, err := RunSeededContext(context.Background(), label, runs, base, runOne)
	if err == nil {
		for _, e := range errs {
			if e != nil {
				return out, e
			}
		}
	}
	return out, err
}
