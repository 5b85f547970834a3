package main

// Arithmetic shared by the end-to-end and per-layer reports: order
// statistics, probe-histogram summaries, level walls from Progress
// timestamps and self-time subtraction. Kept free of I/O so the unit tests
// pin every formula.

import (
	"math"
	"sort"
)

// sortedCopy returns xs sorted ascending without touching the caller's
// slice.
func sortedCopy(xs []float64) []float64 {
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	return s
}

// percentile returns the p-th percentile (0..100) of xs by linear
// interpolation between closest ranks; 0 for an empty sample.
func percentile(xs []float64, p float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := sortedCopy(xs)
	if p <= 0 {
		return s[0]
	}
	if p >= 100 {
		return s[len(s)-1]
	}
	pos := p / 100 * float64(len(s)-1)
	lo := int(math.Floor(pos))
	frac := pos - float64(lo)
	if lo+1 >= len(s) {
		return s[lo]
	}
	return s[lo] + frac*(s[lo+1]-s[lo])
}

// median is the 50th percentile.
func median(xs []float64) float64 { return percentile(xs, 50) }

// maxOf returns the largest element of xs, 0 for an empty sample.
func maxOf(xs []float64) float64 { return percentile(xs, 100) }

// quartiles returns the three cut points that split xs into four groups,
// with the same "exclusive" method Python's statistics.quantiles(xs, n=4)
// uses — the definition the benchmark's spread bounds are stated in. It
// needs at least two values.
func quartiles(xs []float64) (q1, q2, q3 float64, ok bool) {
	m := len(xs)
	if m < 2 {
		return 0, 0, 0, false
	}
	s := sortedCopy(xs)
	const n = 4
	var cut [n - 1]float64
	for i := 1; i < n; i++ {
		// Python clamps the rank and then extrapolates from it, so delta
		// may fall outside [0, n] for tiny samples.
		j := min(max(i*(m+1)/n, 1), m-1)
		delta := i*(m+1) - j*n
		cut[i-1] = (s[j-1]*float64(n-delta) + s[j]*float64(delta)) / n
	}
	return cut[0], cut[1], cut[2], true
}

// spread is the interquartile distance as a share of the median — the
// run-to-run noise figure each end-to-end bound is compared against.
func spread(xs []float64) float64 {
	q1, q2, q3, ok := quartiles(xs)
	if !ok || q2 == 0 {
		return 0
	}
	return (q3 - q1) / q2
}

// probeSummary reduces an mc.Stats.ProbeHist — hist[i] counts claims
// resolved in i+1 probe steps, the last bucket everything at len(hist)
// steps or more — to the mean probe length (the open last bucket counted
// at its lower bound) and the share of claims in that last, open bucket.
func probeSummary(hist []uint64) (mean, tailFrac float64) {
	var n, steps float64
	for i, c := range hist {
		n += float64(c)
		steps += float64(c) * float64(i+1)
	}
	if n == 0 {
		return 0, 0
	}
	return steps / n, float64(hist[len(hist)-1]) / n
}

// levelWalls turns a search's level-1 start and the timestamps of its
// completed levels (one per Progress callback, ascending) into per-level
// wall times: level i runs from the previous mark to mark i.
func levelWalls(start int64, marks []int64) []int64 {
	out := make([]int64, len(marks))
	prev := start
	for i, m := range marks {
		out[i] = m - prev
		prev = m
	}
	return out
}

// levelSplit divides one level between the workers and the coordinator.
// spans are the workers' active spans within the level (first model call
// start to last model call end) and modelNs the model time spent inside
// them. The workers' claim time is their summed spans minus that model
// self time; the boundary is the part of the level wall no worker span
// covers — the serial seal/drain/sort between levels.
func levelSplit(wall int64, spans []int64, modelNs int64) (claim, boundary int64) {
	var sum, longest int64
	for _, s := range spans {
		sum += s
		if s > longest {
			longest = s
		}
	}
	return selfTime(sum, modelNs), wall - longest
}

// selfTime is a span's duration minus the parts its child spans cover.
func selfTime(span int64, children ...int64) int64 {
	for _, c := range children {
		span -= c
	}
	return span
}
