package mc_test

// Sealed-tier and checkpoint tests and layer benchmarks on the real TTA
// model's reduced search (package mc_test, because internal/model
// imports mc).
//
//	go test -run '^$' -bench 'Seal|Checkpoint' -benchmem ./internal/mc

import (
	"context"
	"errors"
	"fmt"
	"path/filepath"
	"testing"

	"ttastar/internal/guardian"
	"ttastar/internal/mc"
	"ttastar/internal/model"
)

func smallShiftModel(tb testing.TB, nodes int) *model.Model {
	tb.Helper()
	m, err := model.New(model.Config{Authority: guardian.AuthoritySmallShift, Nodes: nodes})
	if err != nil {
		tb.Fatal(err)
	}
	return m
}

// TestSealParallelEngineStats: the seal runs on every worker, yet the
// sealed tier and the resident accounting must not depend on how many.
// The 5-node figures are pinned: a change to any of them is a change to
// the arena format or to the resident audit.
func TestSealParallelEngineStats(t *testing.T) {
	type footprint struct {
		resident, peak, sealed, arena, index int64
	}
	pins := map[int]footprint{5: {2250087, 2475181, 103291, 1031271, 884736}}
	for _, nodes := range []int{4, 5} {
		m := smallShiftModel(t, nodes)
		var want footprint
		for _, w := range []int{1, 2, 8} {
			var st mc.Stats
			res, err := mc.CheckTransitionInvariantBytes(m, m.PropertyBytes(),
				mc.Options{Workers: w, Stats: func(s mc.Stats) { st = s }})
			if err != nil || !res.Holds || !res.Reduced {
				t.Fatalf("%d nodes, workers=%d: holds=%v reduced=%v err=%v", nodes, w, res.Holds, res.Reduced, err)
			}
			got := footprint{st.ResidentBytes, st.PeakResidentBytes, st.SealedStates, st.SealedArenaBytes, st.SealedIndexBytes}
			if w == 1 {
				want = got
				if pin, ok := pins[nodes]; ok && got != pin {
					t.Errorf("%d nodes: footprint %+v, want pinned %+v", nodes, got, pin)
				}
			} else if got != want {
				t.Errorf("%d nodes, workers=%d: footprint %+v, want %+v (workers=1)", nodes, w, got, want)
			}
		}
	}
}

// TestResumeCrossModeFootprint: a checkpoint written with sealing off
// is the one a sealing search writes, so a sealing resume of it ends
// with the clean run's sealed tier and the same footprint as a sealing
// resume of a sealed search's file.
func TestResumeCrossModeFootprint(t *testing.T) {
	m := smallShiftModel(t, 5)
	type footprint struct {
		resident, peak, sealed, arena, index int64
	}
	run := func(opts mc.Options) (mc.Result, footprint) {
		t.Helper()
		var st mc.Stats
		opts.Stats = func(s mc.Stats) { st = s }
		res, err := mc.CheckTransitionInvariantBytes(m, m.PropertyBytes(), opts)
		if err != nil {
			t.Fatal(err)
		}
		return res, footprint{st.ResidentBytes, st.PeakResidentBytes, st.SealedStates, st.SealedArenaBytes, st.SealedIndexBytes}
	}
	clean, cleanFp := run(mc.Options{})
	var fps []footprint
	for _, noSeal := range []bool{false, true} {
		path := filepath.Join(t.TempDir(), "cp")
		ctx, cancel := context.WithCancel(context.Background())
		levels := 0
		_, err := mc.CheckTransitionInvariantBytes(m, m.PropertyBytes(), mc.Options{
			NoSeal: noSeal, Context: ctx, CheckpointPath: path,
			Progress: func(mc.Progress) {
				if levels++; levels == 6 {
					cancel()
				}
			},
		})
		cancel()
		if !errors.Is(err, mc.ErrInterrupted) {
			t.Fatalf("noSeal=%v: interrupted run: %v", noSeal, err)
		}
		res, fp := run(mc.Options{ResumePath: path})
		if res.StatesExplored != clean.StatesExplored || res.TransitionsExplored != clean.TransitionsExplored || res.Depth != clean.Depth {
			t.Fatalf("noSeal=%v: resumed %+v, want %+v", noSeal, res, clean)
		}
		if fp.sealed != cleanFp.sealed || fp.arena != cleanFp.arena || fp.index != cleanFp.index {
			t.Errorf("noSeal=%v: resumed sealed tier %+v, clean %+v", noSeal, fp, cleanFp)
		}
		fps = append(fps, fp)
	}
	if fps[0] != fps[1] {
		t.Errorf("sealing resumes differ by writer: sealed-written %+v, NoSeal-written %+v", fps[0], fps[1])
	}
}

// BenchmarkSealedFind: one op is one sealed-tier duplicate confirm — a
// quotiented-index probe plus the delta-chain decode of each
// remainder-matching candidate — for a state of the finished reduced
// 5-node search, visited in a fixed shuffled order.
func BenchmarkSealedFind(b *testing.B) {
	f := mc.NewSealedFinder(smallShiftModel(b, 5), 2)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if !f.Find(i % f.Len()) {
			b.Fatal("sealed state not found")
		}
	}
}

// BenchmarkSeal: one op is the seal of the reduced 5-node search's
// largest level (arena encode, index growth, survivor compaction and
// live-index rebuild for every shard) on a fresh copy of the set.
func BenchmarkSeal(b *testing.B) {
	f := mc.NewSealFixture(smallShiftModel(b, 5))
	for _, w := range []int{1, 2} {
		b.Run(fmt.Sprintf("workers-%d", w), func(b *testing.B) {
			b.ReportAllocs()
			b.ReportMetric(float64(f.BatchLen()), "states/op")
			for i := 0; i < b.N; i++ {
				b.StopTimer()
				c := f.Clone()
				b.StartTimer()
				c.Seal(w)
			}
		})
	}
}

// checkpointBenchModes are the two seal modes the checkpoint benchmarks
// compare; both write and resume the same file.
var checkpointBenchModes = []struct {
	name   string
	noSeal bool
}{{"sealed", false}, {"noseal", true}}

// BenchmarkCheckpointWrite: one op is one engine checkpoint of the
// reduced 5-node search at its first level boundary past 100k states —
// capture (for NoSeal, building the sealed twin's arenas) plus the
// atomic file write.
func BenchmarkCheckpointWrite(b *testing.B) {
	m := smallShiftModel(b, 5)
	for _, mode := range checkpointBenchModes {
		b.Run(mode.name, func(b *testing.B) {
			f := mc.NewCheckpointFixture(m, mode.noSeal, 100_000)
			if f.States() < 100_000 {
				b.Fatalf("fixture holds %d states, want at least 100000", f.States())
			}
			path := filepath.Join(b.TempDir(), "cp")
			b.ReportAllocs()
			b.ResetTimer()
			b.ReportMetric(float64(f.States()), "states/op")
			for i := 0; i < b.N; i++ {
				if err := f.Write(path); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

// BenchmarkCheckpointResume: one op reads, parses and restores that
// checkpoint into a fresh visited set under each seal mode.
func BenchmarkCheckpointResume(b *testing.B) {
	m := smallShiftModel(b, 5)
	f := mc.NewCheckpointFixture(m, false, 100_000)
	path := filepath.Join(b.TempDir(), "cp")
	if err := f.Write(path); err != nil {
		b.Fatal(err)
	}
	for _, mode := range checkpointBenchModes {
		b.Run(mode.name, func(b *testing.B) {
			b.ReportAllocs()
			b.ReportMetric(float64(f.States()), "states/op")
			for i := 0; i < b.N; i++ {
				n, err := mc.ResumeCheckpoint(path, mode.noSeal)
				if err != nil || n != f.States() {
					b.Fatalf("resume: %d states, %v; want %d", n, err, f.States())
				}
			}
		})
	}
}
