package mc_test

// Sealed-tier tests and layer benchmarks on the real TTA model's
// reduced search (package mc_test, because internal/model imports mc).
//
//	go test -run '^$' -bench 'Seal' -benchmem ./internal/mc

import (
	"fmt"
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
