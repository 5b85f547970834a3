// Package stats provides the small descriptive statistics the experiment
// campaigns report: samples with mean/deviation/extremes, normal-approx
// confidence intervals, and fixed-width histograms.
package stats

import (
	"fmt"
	"math"
)

// Sample accumulates observations.
type Sample struct {
	values []float64
}

// Add records one observation.
func (s *Sample) Add(v float64) { s.values = append(s.values, v) }

// N returns the number of observations.
func (s *Sample) N() int { return len(s.values) }

// Mean returns the arithmetic mean (0 for an empty sample).
func (s *Sample) Mean() float64 {
	if len(s.values) == 0 {
		return 0
	}
	sum := 0.0
	for _, v := range s.values {
		sum += v
	}
	return sum / float64(len(s.values))
}

// StdDev returns the sample standard deviation (0 for n < 2).
func (s *Sample) StdDev() float64 {
	n := len(s.values)
	if n < 2 {
		return 0
	}
	m := s.Mean()
	ss := 0.0
	for _, v := range s.values {
		d := v - m
		ss += d * d
	}
	return math.Sqrt(ss / float64(n-1))
}

// Min returns the smallest observation (0 for an empty sample).
func (s *Sample) Min() float64 {
	if len(s.values) == 0 {
		return 0
	}
	min := s.values[0]
	for _, v := range s.values[1:] {
		if v < min {
			min = v
		}
	}
	return min
}

// Max returns the largest observation (0 for an empty sample).
func (s *Sample) Max() float64 {
	if len(s.values) == 0 {
		return 0
	}
	max := s.values[0]
	for _, v := range s.values[1:] {
		if v > max {
			max = v
		}
	}
	return max
}

// CI95 returns a normal-approximation 95% confidence interval for the
// mean. For an empty sample both bounds are 0; for a single observation
// the spread is undefined and both bounds collapse to the mean, so no
// NaN can leak into formatted output.
func (s *Sample) CI95() (lo, hi float64) {
	n := len(s.values)
	if n == 0 {
		return 0, 0
	}
	m := s.Mean()
	if n < 2 {
		return m, m
	}
	half := 1.96 * s.StdDev() / math.Sqrt(float64(n))
	return m - half, m + half
}

// Proportion is a success count out of a number of Bernoulli trials, for
// rate cells like "all-active replicas" or "agreement reached". Use it
// instead of feeding 0/1 observations to Sample: the normal approximation
// behind Sample.CI95 degenerates near 0 and 1 (a 0/100 cell would report
// the absurd interval [0, 0]), while the Wilson score interval stays
// inside [0, 1] and keeps honest coverage at the extremes.
type Proportion struct {
	Successes int
	Trials    int
}

// Add records one trial.
func (p *Proportion) Add(success bool) {
	p.Trials++
	if success {
		p.Successes++
	}
}

// Rate returns the point estimate successes/trials (0 for no trials).
func (p *Proportion) Rate() float64 {
	if p.Trials == 0 {
		return 0
	}
	return float64(p.Successes) / float64(p.Trials)
}

// CI95 returns the 95% Wilson score interval for the underlying success
// probability. For zero trials both bounds are 0. Unlike the Wald
// (normal) interval the bounds are always within [0, 1] and are non-empty
// even for 0/n and n/n cells.
func (p *Proportion) CI95() (lo, hi float64) {
	n := float64(p.Trials)
	if p.Trials == 0 {
		return 0, 0
	}
	const z = 1.96
	z2 := z * z
	phat := float64(p.Successes) / n
	denom := 1 + z2/n
	center := (phat + z2/(2*n)) / denom
	half := z * math.Sqrt(phat*(1-phat)/n+z2/(4*n*n)) / denom
	lo, hi = center-half, center+half
	if lo < 0 {
		lo = 0
	}
	if hi > 1 {
		hi = 1
	}
	return lo, hi
}

// String summarizes the proportion with its Wilson interval.
func (p *Proportion) String() string {
	lo, hi := p.CI95()
	return fmt.Sprintf("%d/%d rate=%.3f ±95%%[%.3f,%.3f]", p.Successes, p.Trials, p.Rate(), lo, hi)
}

// String summarizes the sample.
func (s *Sample) String() string {
	lo, hi := s.CI95()
	return fmt.Sprintf("n=%d mean=%.3f ±95%%[%.3f,%.3f] min=%.3f max=%.3f",
		s.N(), s.Mean(), lo, hi, s.Min(), s.Max())
}
