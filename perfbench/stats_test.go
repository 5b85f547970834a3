package main

import (
	"encoding/binary"
	"math"
	"slices"
	"testing"
)

func near(a, b float64) bool { return math.Abs(a-b) < 1e-9 }

func TestPercentiles(t *testing.T) {
	xs := []float64{5, 1, 4, 2, 3}
	for _, tc := range []struct{ p, want float64 }{
		{0, 1}, {25, 2}, {50, 3}, {90, 4.6}, {100, 5},
	} {
		if got := percentile(xs, tc.p); !near(got, tc.want) {
			t.Errorf("percentile(%v, %v) = %v, want %v", xs, tc.p, got, tc.want)
		}
	}
	if got := median([]float64{4, 1, 3, 2}); !near(got, 2.5) {
		t.Errorf("median of an even sample = %v, want 2.5", got)
	}
	if median(nil) != 0 || maxOf(nil) != 0 {
		t.Error("empty sample must read 0")
	}
	if !slices.Equal(xs, []float64{5, 1, 4, 2, 3}) {
		t.Error("percentile reordered its input")
	}
}

// The reference values are Python's statistics.quantiles(xs, n=4).
func TestQuartilesMatchPython(t *testing.T) {
	for _, tc := range []struct {
		xs   []float64
		want [3]float64
	}{
		{[]float64{1, 2, 3, 4, 5}, [3]float64{1.5, 3, 4.5}},
		{[]float64{1, 2, 3, 4, 5, 6, 7, 8, 9, 10}, [3]float64{2.75, 5.5, 8.25}},
		{[]float64{3.1, 2.9}, [3]float64{2.85, 3, 3.15}},
		{[]float64{5, 1, 4, 2, 3, 9, 7}, [3]float64{2, 4, 7}},
	} {
		q1, q2, q3, ok := quartiles(tc.xs)
		if !ok || !near(q1, tc.want[0]) || !near(q2, tc.want[1]) || !near(q3, tc.want[2]) {
			t.Errorf("quartiles(%v) = %v %v %v, want %v", tc.xs, q1, q2, q3, tc.want)
		}
	}
	if _, _, _, ok := quartiles([]float64{1}); ok {
		t.Error("one value has no quartiles")
	}
	if got := spread([]float64{1, 2, 3, 4, 5}); !near(got, 1) {
		t.Errorf("spread = %v, want (4.5-1.5)/3 = 1", got)
	}
}

func TestProbeSummary(t *testing.T) {
	// 6 claims in one step, 2 in two, 2 in the open ≥8 bucket.
	mean, tail := probeSummary([]uint64{6, 2, 0, 0, 0, 0, 0, 2})
	if !near(mean, 2.6) || !near(tail, 0.2) {
		t.Errorf("probeSummary = %v, %v; want 2.6, 0.2", mean, tail)
	}
	if mean, tail := probeSummary(make([]uint64, 8)); mean != 0 || tail != 0 {
		t.Error("an empty histogram must read 0")
	}
}

func TestLevelWallsFromProgress(t *testing.T) {
	got := levelWalls(100, []int64{150, 170, 300})
	if !slices.Equal(got, []int64{50, 20, 130}) {
		t.Errorf("levelWalls = %v", got)
	}
	if len(levelWalls(5, nil)) != 0 {
		t.Error("no Progress callbacks, no levels")
	}
}

func TestSelfTimeSubtraction(t *testing.T) {
	if got := selfTime(100, 30, 20); got != 50 {
		t.Errorf("selfTime = %d, want 50", got)
	}
	// Two workers active 60 and 80 of a 100-unit level, 90 units of it in
	// model calls: 50 units of claim self time, and 20 units no worker
	// span covers.
	claim, boundary := levelSplit(100, []int64{60, 80}, 90)
	if claim != 50 || boundary != 20 {
		t.Errorf("levelSplit = %d, %d; want 50, 20", claim, boundary)
	}
}

func TestFrameCounter(t *testing.T) {
	var stream []byte
	for _, n := range []int{1, 300, 7, 65536} {
		stream = binary.LittleEndian.AppendUint32(stream, uint32(n))
		stream = append(stream, make([]byte, n)...)
	}
	for _, chunk := range []int{1, 3, 4, 5, 1000, len(stream)} {
		var f frameCounter
		frames := 0
		for p := stream; len(p) > 0; {
			k := min(chunk, len(p))
			frames += f.feed(p[:k])
			p = p[k:]
		}
		if frames != 4 || f.have != 0 || f.left != 0 {
			t.Errorf("chunk %d: %d frames (state %d/%d), want 4", chunk, frames, f.have, f.left)
		}
	}
}

func TestKillPlanStaysMidSearch(t *testing.T) {
	seen := map[[2]int]bool{}
	for seed := uint64(1); seed <= 40; seed++ {
		w, l := killPlan(seed, 2, 32)
		if w < 0 || w > 1 || l < 15 || l > 18 {
			t.Fatalf("seed %d: worker %d level %d outside worker [0,1], levels [15,18]", seed, w, l)
		}
		if w2, l2 := killPlan(seed, 2, 32); w2 != w || l2 != l {
			t.Fatalf("seed %d: plan not deterministic", seed)
		}
		seen[[2]int{w, l}] = true
	}
	if len(seen) < 6 {
		t.Errorf("40 seeds gave only %d distinct kill plans", len(seen))
	}
}
