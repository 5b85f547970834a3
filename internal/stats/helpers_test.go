package stats

// Functions only the tests call.

import (
	"fmt"
	"strings"
)

// Merge appends every observation of o to s, preserving o's insertion
// order. Merging per-shard samples in shard order is therefore associative
// and yields exactly the sample a serial accumulation would have built —
// the property parallel campaign runners rely on.
func (s *Sample) Merge(o Sample) { s.values = append(s.values, o.values...) }

// Merge accumulates another proportion's counts.
func (p *Proportion) Merge(o Proportion) {
	p.Successes += o.Successes
	p.Trials += o.Trials
}

// Histogram counts observations into fixed-width buckets over [Lo, Hi);
// out-of-range observations land in the edge buckets.
type Histogram struct {
	Lo, Hi  float64
	buckets []int
	total   int
}

// NewHistogram returns a histogram with n buckets over [lo, hi). It panics
// on a degenerate range — always a caller bug.
func NewHistogram(lo, hi float64, n int) *Histogram {
	if n <= 0 || hi <= lo {
		panic(fmt.Sprintf("stats: bad histogram [%g,%g)/%d", lo, hi, n))
	}
	return &Histogram{Lo: lo, Hi: hi, buckets: make([]int, n)}
}

// Add records one observation.
func (h *Histogram) Add(v float64) {
	i := int(float64(len(h.buckets)) * (v - h.Lo) / (h.Hi - h.Lo))
	if i < 0 {
		i = 0
	}
	if i >= len(h.buckets) {
		i = len(h.buckets) - 1
	}
	h.buckets[i]++
	h.total++
}

// Total returns the number of observations recorded.
func (h *Histogram) Total() int { return h.total }

// Bucket returns the count in bucket i.
func (h *Histogram) Bucket(i int) int { return h.buckets[i] }

// String renders the histogram as bars.
func (h *Histogram) String() string {
	var b strings.Builder
	peak := 0
	for _, c := range h.buckets {
		if c > peak {
			peak = c
		}
	}
	width := (h.Hi - h.Lo) / float64(len(h.buckets))
	for i, c := range h.buckets {
		bar := 0
		if peak > 0 {
			bar = 30 * c / peak
		}
		fmt.Fprintf(&b, "[%8.3f,%8.3f) %-30s %d\n",
			h.Lo+float64(i)*width, h.Lo+float64(i+1)*width, strings.Repeat("#", bar), c)
	}
	return b.String()
}
