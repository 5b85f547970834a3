// Package clocksync implements TTP/C-style distributed clock
// synchronization: each node measures the deviation between the actual and
// expected arrival times of frames from other nodes, and periodically
// applies a fault-tolerant average (FTA) of the collected deviations as a
// correction to its local clock. §2.1 of the paper sketches exactly this
// scheme.
package clocksync

import (
	"slices"
	"time"
)

// FTA computes the fault-tolerant average of the deviations: the k largest
// and k smallest values are discarded and the rest averaged, which bounds
// the influence of up to k arbitrarily faulty measurements. With fewer than
// 2k+1 measurements there is nothing trustworthy to average and FTA returns
// zero. Up to 16 deviations (one round of a 16-node cluster) are sorted on
// the stack, so the common case does not allocate.
func FTA(devs []time.Duration, k int) time.Duration {
	if k < 0 {
		k = 0
	}
	if len(devs) < 2*k+1 {
		return 0
	}
	var buf [16]time.Duration
	sorted := append(buf[:0], devs...)
	slices.Sort(sorted)
	trimmed := sorted[k : len(sorted)-k]
	var sum time.Duration
	for _, d := range trimmed {
		sum += d
	}
	return sum / time.Duration(len(trimmed))
}

// Synchronizer accumulates deviation measurements over a resynchronization
// interval and produces FTA corrections. The zero value is not usable; use
// New.
type Synchronizer struct {
	k           int
	devs        []time.Duration
	corrections int
	lastCorr    time.Duration
	maxAbsCorr  time.Duration
}

// New returns a synchronizer tolerating k faulty measurements per interval.
func New(k int) *Synchronizer {
	return &Synchronizer{k: k}
}

// Observe records one deviation measurement: actual minus expected arrival
// time of a frame, as measured on the local clock. Positive means the frame
// arrived late relative to the local clock (the local clock runs fast).
func (s *Synchronizer) Observe(dev time.Duration) {
	s.devs = append(s.devs, dev)
}

// Correction closes the current interval: it returns the clock correction
// to apply (the FTA of the collected deviations) and clears the
// measurement store for the next interval.
func (s *Synchronizer) Correction() time.Duration {
	corr := FTA(s.devs, s.k)
	s.devs = s.devs[:0]
	if corr != 0 {
		s.corrections++
		s.lastCorr = corr
		if abs := corr.Abs(); abs > s.maxAbsCorr {
			s.maxAbsCorr = abs
		}
	}
	return corr
}

// Stats reports how many non-zero corrections were applied, the last one,
// and the largest magnitude seen — observability for precision experiments.
func (s *Synchronizer) Stats() (count int, last, maxAbs time.Duration) {
	return s.corrections, s.lastCorr, s.maxAbsCorr
}
