package mc_test

// Sealed-tier and checkpoint tests and layer benchmarks on the real TTA
// model (package mc_test, because internal/model imports mc), and the
// comparisons of the sealed tier against the unsealed oracle.
//
//	go test -run '^$' -bench 'Seal|Checkpoint' -benchmem ./internal/mc

import (
	"context"
	"errors"
	"fmt"
	"path/filepath"
	"reflect"
	"testing"

	"ttastar/internal/experiments"
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

// TestResumeCrossModeFootprint: a sealing resume of a checkpoint cut
// at level 6 ends with the clean run's result and sealed tier, and with
// the same full footprint at every resuming worker count. (The unsealed
// oracle neither writes nor resumes checkpoints.)
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
	var first footprint
	for i, w := range []int{1, 2, 8} {
		path := filepath.Join(t.TempDir(), "cp")
		ctx, cancel := context.WithCancel(context.Background())
		levels := 0
		_, err := mc.CheckTransitionInvariantBytes(m, m.PropertyBytes(), mc.Options{
			Context: ctx, CheckpointPath: path,
			Progress: func(mc.Progress) {
				if levels++; levels == 6 {
					cancel()
				}
			},
		})
		cancel()
		if !errors.Is(err, mc.ErrInterrupted) {
			t.Fatalf("interrupted run: %v", err)
		}
		res, fp := run(mc.Options{Workers: w, ResumePath: path})
		if !reflect.DeepEqual(res, clean) {
			t.Fatalf("workers=%d: resumed %+v, want %+v", w, res, clean)
		}
		if fp.sealed != cleanFp.sealed || fp.arena != cleanFp.arena || fp.index != cleanFp.index {
			t.Errorf("workers=%d: resumed sealed tier %+v, clean %+v", w, fp, cleanFp)
		}
		if i == 0 {
			first = fp
		} else if fp != first {
			t.Errorf("workers=%d: resumed footprint %+v, workers=1 %+v", w, fp, first)
		}
	}
}

// TestSealNoSealEquivalence runs the same searches with the sealed tier
// and with the unsealed oracle at every worker count: whole Results
// (verdict, counts, depth, counterexample) must be identical, the
// oracle must seal nothing, and on real populations the sealed peak
// must not exceed the oracle's. The TTA cases are the E1 matrix in
// oracle (-no-reduce) mode — all four authorities, the full-shift
// counterexample included — and the reduced 5-node small-shift check.
func TestSealNoSealEquivalence(t *testing.T) {
	m5 := smallShiftModel(t, 5)
	cases := []struct {
		name string
		run  func(mc.Options) (any, error)
		// Fixed per-shard overheads (seal scratch, quotient index)
		// only amortize on real populations; tiny early-stop searches
		// skip the peak comparison.
		wantSmaller bool
	}{
		{"collision-holds", func(o mc.Options) (any, error) {
			return mc.CheckTransitionInvariant(mc.CollisionModel(3000),
				func(from, to mc.State) bool { return true }, o)
		}, true},
		{"diamond-violation", func(o mc.Options) (any, error) {
			return mc.CheckTransitionInvariant(mc.DiamondModel(30),
				func(from, to mc.State) bool { return to != mc.EncodeXY(17, 17) }, o)
		}, false},
		{"e1-matrix", func(o mc.Options) (any, error) {
			return experiments.VerificationMatrix(o)
		}, true},
		{"smallshift-5n", func(o mc.Options) (any, error) {
			return mc.CheckTransitionInvariantBytes(m5, m5.PropertyBytes(), o)
		}, true},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			for _, w := range []int{1, 2, 8} {
				var sealedStats, plainStats []mc.Stats
				sealed, err1 := tc.run(mc.Options{Workers: w, Stats: func(s mc.Stats) { sealedStats = append(sealedStats, s) }})
				plain, err2 := tc.run(mc.WithNoSeal(mc.Options{Workers: w, Stats: func(s mc.Stats) { plainStats = append(plainStats, s) }}))
				if err1 != nil || err2 != nil {
					t.Fatalf("workers=%d: errs %v / %v", w, err1, err2)
				}
				if !reflect.DeepEqual(sealed, plain) {
					t.Fatalf("workers=%d: sealed %+v != unsealed %+v", w, sealed, plain)
				}
				if len(sealedStats) == 0 || len(sealedStats) != len(plainStats) {
					t.Fatalf("workers=%d: %d sealed and %d unsealed searches", w, len(sealedStats), len(plainStats))
				}
				for i := range sealedStats {
					if sealedStats[i].SealedStates == 0 {
						t.Fatalf("workers=%d search %d: sealed run reports no sealed states", w, i)
					}
					if plainStats[i].SealedStates != 0 {
						t.Fatalf("workers=%d search %d: unsealed run reports %d sealed states", w, i, plainStats[i].SealedStates)
					}
					if tc.wantSmaller && sealedStats[i].PeakResidentBytes > plainStats[i].PeakResidentBytes {
						t.Errorf("workers=%d search %d: sealed peak %d > unsealed peak %d", w, i,
							sealedStats[i].PeakResidentBytes, plainStats[i].PeakResidentBytes)
					}
				}
			}
		})
	}
	// The matrix must show its counterexample row, or the case above
	// compared no trace.
	rows, err := experiments.VerificationMatrix(mc.Options{})
	if err != nil {
		t.Fatal(err)
	}
	if last := rows[len(rows)-1]; last.Result.Holds || len(last.Result.Counterexample) == 0 {
		t.Fatalf("full-shift row %+v: want a counterexample", last.Result)
	}
}

// TestSealedBudgetContrast pins the sealed tier's reason to exist at a
// size CI runs in seconds: under a 4 MB resident budget the reduced
// 5-node small-shift check completes sealed, while the unsealed oracle
// exhausts the budget at a level boundary. Both outcomes are
// deterministic (resident accounting is exact), so both are pinned.
func TestSealedBudgetContrast(t *testing.T) {
	m := smallShiftModel(t, 5)
	for _, w := range []int{1, 2} {
		opts := mc.Options{Workers: w, MemBudget: 4_000_000}
		res, err := mc.CheckTransitionInvariantBytes(m, m.PropertyBytes(), opts)
		if err != nil || !res.Holds || res.StatesExplored != 103291 || res.TransitionsExplored != 300876 {
			t.Fatalf("workers=%d sealed: %+v, %v; want HOLDS with 103291 states, 300876 transitions", w, res, err)
		}
		res, err = mc.CheckTransitionInvariantBytes(m, m.PropertyBytes(), mc.WithNoSeal(opts))
		if !errors.Is(err, mc.ErrStateLimit) || res.StatesExplored != 66428 {
			t.Fatalf("workers=%d unsealed: %d states, %v; want ErrStateLimit at 66428 states", w, res.StatesExplored, err)
		}
	}
}

// TestSealedTwinEveryLevel: at every level boundary of the reduced 4-
// and 5-node searches, the sealing engine's arenas are byte-identical
// to the sealed twin rebuilt from an unsealed run at the same boundary,
// and its live tier holds the same states, keys and (remapped) parents.
// The twin orders every closed level by key without going through seal,
// so this checks the seal's migration, compaction and ref remapping. The
// seal runs on two workers; TestSealParallelMatchesSerial pins that to
// the serial seal.
func TestSealedTwinEveryLevel(t *testing.T) {
	for _, nodes := range []int{4, 5} {
		levels := mc.SealedTwinLevels(smallShiftModel(t, nodes), 2, func(level, badShard int, liveDiffers bool) {
			if badShard >= 0 {
				t.Fatalf("%d nodes level %d: shard %d arena differs from the sealed twin", nodes, level, badShard)
			}
			if liveDiffers {
				t.Fatalf("%d nodes level %d: live tier differs from the unsealed run's", nodes, level)
			}
		})
		if levels < 10 {
			t.Fatalf("%d nodes: only %d level boundaries checked", nodes, levels)
		}
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

// BenchmarkCheckpointWrite: one op is one engine checkpoint of the
// reduced 5-node search at its first level boundary past 100k states —
// capture plus the atomic file write.
func BenchmarkCheckpointWrite(b *testing.B) {
	f := mc.NewCheckpointFixture(smallShiftModel(b, 5), 100_000)
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
}

// BenchmarkCheckpointResume: one op reads, parses and restores that
// checkpoint into a fresh visited set.
func BenchmarkCheckpointResume(b *testing.B) {
	f := mc.NewCheckpointFixture(smallShiftModel(b, 5), 100_000)
	path := filepath.Join(b.TempDir(), "cp")
	if err := f.Write(path); err != nil {
		b.Fatal(err)
	}
	b.ReportAllocs()
	b.ResetTimer()
	b.ReportMetric(float64(f.States()), "states/op")
	for i := 0; i < b.N; i++ {
		n, err := mc.ResumeCheckpoint(path)
		if err != nil || n != f.States() {
			b.Fatalf("resume: %d states, %v; want %d", n, err, f.States())
		}
	}
}
