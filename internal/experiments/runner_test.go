package experiments

import (
	"context"
	"errors"
	"runtime"
	"testing"
	"time"

	"ttastar/internal/channel"
	"ttastar/internal/cluster"
	"ttastar/internal/guardian"
	"ttastar/internal/sim"
)

func TestMapRunsOrdered(t *testing.T) {
	// Degenerate worker counts (0, negative, more workers than runs) must
	// clamp rather than deadlock or spawn idle goroutines.
	for _, workers := range []int{-3, 0, 1, 3, 16, 200} {
		out, errs := mapRuns(context.Background(), 50, workers, func(i int) (int, error) { return i * i, nil })
		for i, v := range out {
			if errs[i] != nil {
				t.Fatalf("workers=%d: run %d errored: %v", workers, i, errs[i])
			}
			if v != i*i {
				t.Fatalf("workers=%d: out[%d] = %d, results out of order", workers, i, v)
			}
		}
	}
	if out, errs := mapRuns(context.Background(), 0, 4, func(i int) (int, error) { return 0, nil }); out != nil || errs != nil {
		t.Error("zero runs should be a no-op")
	}
	if out, errs := mapRuns(context.Background(), -5, 4, func(i int) (int, error) { return 0, nil }); out != nil || errs != nil {
		t.Error("negative runs should be a no-op")
	}
}

// TestMapRunsFirstError: whatever the scheduling, the reported fatal error
// is the one from the lowest-indexed failing run.
func TestMapRunsFirstError(t *testing.T) {
	errLow, errHigh := errors.New("low"), errors.New("high")
	for _, workers := range []int{1, 4, 16} {
		_, errs := mapRuns(context.Background(), 40, workers, func(i int) (struct{}, error) {
			switch i {
			case 7:
				return struct{}{}, errLow
			case 31:
				return struct{}{}, errHigh
			}
			return struct{}{}, nil
		})
		if err := firstError(errs); err != errLow {
			t.Errorf("workers=%d: got %v, want the run-7 error", workers, err)
		}
	}
}

// TestRunSeededStreamsDistinct: every run and every cell label gets its
// own seed streams; runs of a cell must not share cluster seeds, and the
// same run index in different cells must differ too.
func TestRunSeededStreamsDistinct(t *testing.T) {
	collect := func(label string) []uint64 {
		seeds, err := RunSeeded(label, 32, 9, func(r int, s RunSeeds) (uint64, error) {
			return s.Cluster, nil
		})
		if err != nil {
			t.Fatal(err)
		}
		return seeds
	}
	a, b := collect("cell A"), collect("cell B")
	seen := map[uint64]bool{}
	for i := range a {
		if seen[a[i]] || seen[b[i]] || a[i] == b[i] {
			t.Fatalf("run %d: duplicate cluster seed across runs/cells", i)
		}
		seen[a[i]], seen[b[i]] = true, true
	}
	// Same label, same base: reproducible.
	for i, v := range collect("cell A") {
		if v != a[i] {
			t.Fatal("RunSeeded is not reproducible")
		}
	}
}

// TestCampaignParallelDeterminism is the engine's core guarantee: one
// campaign run at -parallel 1, 4 and NumCPU runs every run of its cells
// and produces byte-identical formatted cells and identical counters.
func TestCampaignParallelDeterminism(t *testing.T) {
	defer SetParallelism(0)
	type snapshot struct {
		table            string
		freezes, blocked int
	}
	var first *snapshot
	firstWorkers := 0
	for _, workers := range []int{1, 4, runtime.NumCPU()} {
		SetParallelism(workers)
		if got := Parallelism(); got != workers {
			t.Fatalf("Parallelism() = %d after SetParallelism(%d)", got, workers)
		}
		bus, err := SOSTimingCampaign(context.Background(), cluster.TopologyBus, guardian.AuthoritySmallShift, 4, 1)
		if err != nil {
			t.Fatal(err)
		}
		star, err := BabblingIdiotCampaign(context.Background(), cluster.TopologyStar, guardian.AuthoritySmallShift, 4, 1)
		if err != nil {
			t.Fatal(err)
		}
		if bus.Runs != 4 || star.Runs != 4 {
			t.Fatalf("workers=%d: cells ran %d and %d of 4 runs", workers, bus.Runs, star.Runs)
		}
		snap := snapshot{
			table:   FormatCampaign([]CampaignCell{bus, star}),
			freezes: bus.HealthyFreezes + star.HealthyFreezes,
			blocked: bus.GuardianBlocked + star.GuardianBlocked,
		}
		if first == nil {
			first, firstWorkers = &snap, workers
			continue
		}
		if snap.table != first.table {
			t.Errorf("workers=%d table differs from workers=%d:\n%s\nvs\n%s",
				workers, firstWorkers, snap.table, first.table)
		}
		if snap.freezes != first.freezes || snap.blocked != first.blocked {
			t.Errorf("workers=%d: freezes=%d blocked=%d, workers=%d: freezes=%d blocked=%d",
				workers, snap.freezes, snap.blocked, firstWorkers, first.freezes, first.blocked)
		}
	}
}

func TestCampaignCellMergeAssociative(t *testing.T) {
	verdicts := []RunVerdict{
		{Disrupted: true, HealthyFreezes: 2, GuardianBlocked: 1},
		{},
		{Disrupted: true, HealthyFreezes: 1, GuardianBlocked: 5},
		{GuardianBlocked: 3},
	}
	var serial CampaignCell
	serial.reduceVerdicts(verdicts, nil)
	var shard1, shard2 CampaignCell
	shard1.reduceVerdicts(verdicts[:2], nil)
	shard2.reduceVerdicts(verdicts[2:], nil)
	var merged CampaignCell
	merged.Merge(shard1)
	merged.Merge(shard2)
	if merged != serial {
		t.Errorf("sharded merge %+v != serial reduce %+v", merged, serial)
	}
}

// TestPerStartMemo pins the sentinel regression: a legitimately zero draw
// must be cached like any other value — one draw per distinct start, both
// channels served the same value. The old `lastOffset == 0` test redrew
// per channel whenever the draw happened to be zero.
func TestPerStartMemo(t *testing.T) {
	draws := 0
	vals := []int{5, 0, -2, 0, 7}
	memo := perStartMemo(func() int {
		v := vals[draws%len(vals)]
		draws++
		return v
	})
	for frame := 0; frame < 5; frame++ {
		start := sim.Time(frame * 1000)
		chA := memo(start)
		chB := memo(start)
		if chA != chB {
			t.Fatalf("frame %d: channel A saw %d, channel B saw %d", frame, chA, chB)
		}
		if chA != vals[frame] {
			t.Fatalf("frame %d: memo returned %d, want %d (extra redraws?)", frame, chA, vals[frame])
		}
	}
	if draws != len(vals) {
		t.Errorf("drew %d values for %d distinct starts", draws, len(vals))
	}
}

// TestPerFrameHooksChannelConsistency drives the real SOS hooks the way
// the node does — once per channel per frame — and requires the identical
// marginal transmission on both channels, including frames whose drawn
// offset is exactly zero.
func TestPerFrameHooksChannelConsistency(t *testing.T) {
	rng := sim.NewRNG(3)
	// base 0, jitter 1ns: offsets in {-1, 0, 1}, so zero draws are common.
	offset := perFrameOffset(rng, 0, time.Nanosecond)
	strength := perFrameStrength(sim.NewRNG(4), 0.50, 0.03)
	zeroOffsets := 0
	for frame := 0; frame < 300; frame++ {
		tx := channel.Transmission{Start: sim.Time(1000 * frame), Strength: channel.NominalStrength}
		a, _ := offset(channel.ChannelA, tx)
		b, _ := offset(channel.ChannelB, tx)
		if a != b {
			t.Fatalf("frame %d: offset hook split channels: %v vs %v", frame, a.Start, b.Start)
		}
		if a.Start == tx.Start {
			zeroOffsets++
		}
		sa, _ := strength(channel.ChannelA, tx)
		sb, _ := strength(channel.ChannelB, tx)
		if sa.Strength != sb.Strength {
			t.Fatalf("frame %d: strength hook split channels: %v vs %v", frame, sa.Strength, sb.Strength)
		}
	}
	if zeroOffsets == 0 {
		t.Error("no zero-offset frame in 300 draws; regression case not exercised")
	}
}

// Example-style check that the label reaches the derivation: identical
// campaigns differing only in their label draw different streams.
func TestSeedsForLabelSensitivity(t *testing.T) {
	a := seedsFor(1, "SOS timing (bus, local guardians)", 0)
	b := seedsFor(1, "SOS value (bus, local guardians)", 0)
	if a.Cluster == b.Cluster {
		t.Error("different cells share a cluster seed")
	}
	if a.RNG.Uint64() == b.RNG.Uint64() {
		t.Error("different cells share an experiment stream")
	}
}
