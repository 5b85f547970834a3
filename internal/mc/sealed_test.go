package mc

// Tests for the sealed visited-set tier (sealed.go + visitedSet.seal):
// the delta-compressed entry arena, the quotiented probe index, the
// level-boundary migration itself, the resident-byte audit, and the v5
// checkpoint format that serializes the tier directly.

import (
	"bytes"
	"context"
	"errors"
	"fmt"
	"os"
	"path/filepath"
	"reflect"
	"runtime"
	"strings"
	"testing"
)

// sealFixtureState builds a deterministic ~16-byte encoding for id with
// some shared prefix structure (realistic for packed model states, and
// what the delta codec exploits).
func sealFixtureState(level, id int) []byte {
	return []byte(fmt.Sprintf("L%03d/s%08d", level, id))
}

// TestSealMigrationRoundTrip drives the visited set exactly as the
// engine does — claim a level under a base, seal the previous level,
// repeat — and verifies after every boundary that each state (sealed or
// live) still resolves by find, round-trips its bytes, keeps its parent
// chain, and reports duplicate claims as duplicates.
func TestSealMigrationRoundTrip(t *testing.T) {
	const levels, perLevel = 12, 90
	v := newVisitedSet(levels*perLevel + 1)
	var pc probeCounter

	type rec struct {
		enc    []byte
		parent int // index into all, -1 = none
	}
	var all []rec
	allRefs := []uint32{}
	base := uint64(1)
	var prevLevel, curLevel []uint32

	for l := 0; l < levels; l++ {
		for i := 0; i < perLevel; i++ {
			enc := sealFixtureState(l, i*i%977)
			parent := -1
			var pref uint32
			hasParent := false
			if l > 0 {
				parent = (l-1)*perLevel + i%perLevel
				pref = allRefs[parent]
				hasParent = true
			}
			st, ref := v.claim(enc, hashBytes(enc), pref, base+uint64(i), hasParent, base, &pc)
			if st != ClaimNew {
				t.Fatalf("level %d state %d: claim = %d, want ClaimNew", l, i, st)
			}
			all = append(all, rec{enc: enc, parent: parent})
			allRefs = append(allRefs, ref)
			curLevel = append(curLevel, ref)
		}
		// Level boundary: the just-expanded previous level migrates to
		// the sealed tier; every ref the test still holds is rewritten.
		if len(prevLevel) > 0 {
			v.seal(1, prevLevel, allRefs, curLevel)
		}
		prevLevel = curLevel
		curLevel = nil
		base += uint64(perLevel) << keySuccBits

		for j, r := range all {
			ref := allRefs[j]
			if got := v.bytesOf(ref); !bytes.Equal(got, r.enc) {
				t.Fatalf("after %d seals: ref %d reads %q, want %q", l, j, got, r.enc)
			}
			fref, ok := v.find(r.enc, hashBytes(r.enc))
			if !ok || fref != ref {
				t.Fatalf("after %d seals: find(%q) = (%d,%v), want (%d,true)", l, r.enc, fref, ok, ref)
			}
			pref, has := v.parentOf(ref)
			if has != (r.parent >= 0) {
				t.Fatalf("after %d seals: ref %d hasParent=%v, want %v", l, j, has, r.parent >= 0)
			}
			if has && pref != allRefs[r.parent] {
				t.Fatalf("after %d seals: ref %d parent %d, want %d", l, j, pref, allRefs[r.parent])
			}
			st, _ := v.claim(r.enc, hashBytes(r.enc), 0, base, false, base, &pc)
			if st != ClaimDup {
				t.Fatalf("after %d seals: re-claim of %q = %d, want ClaimDup", l, r.enc, st)
			}
		}
	}

	states, arena, index := v.sealedStats()
	if want := int64((levels - 1) * perLevel); states != want {
		t.Fatalf("sealed states = %d, want %d", states, want)
	}
	if arena <= 0 || index <= 0 {
		t.Fatalf("sealed arena/index bytes = %d/%d, want positive", arena, index)
	}
	// The codec must beat raw storage on this self-similar fixture.
	rawBytes := states * int64(len(sealFixtureState(0, 0)))
	if arena >= rawBytes {
		t.Errorf("sealed arena %dB >= raw %dB: delta compression ineffective", arena, rawBytes)
	}
}

// sealedCollisionState searches for an encoding whose hash collides
// with the target's (shard, initial index cell, quotient remainder)
// triple — the full signature the quotiented index stores. Confirms
// must fall through to the arena decode to tell such states apart.
func sealedCollisionState(id int, pos, rem uint32) []byte {
	for nonce := 0; ; nonce++ {
		enc := []byte(fmt.Sprintf("q%03d/%d", id, nonce))
		h := hashBytes(enc)
		ph := uint32(h >> 32)
		if uint32(h)&(numShards-1) == 0 && ph>>sealedRemShift == rem && ph&(sealedInitialCells-1) == pos {
			return enc
		}
	}
}

// TestSealedIndexCollisionAdversary seals a batch of states that all
// share one shard, one initial probe cell and one stored remainder.
// Every lookup — hit or miss — survives only through the full-key
// confirm, so a false accept or probe-chain break shows up immediately.
func TestSealedIndexCollisionAdversary(t *testing.T) {
	const n = 20 // stays below the 32-cell index's growth threshold
	v := newVisitedSet(n + 1)
	var pc probeCounter
	encs := make([][]byte, n)
	refs := make([]uint32, n)
	for i := range encs {
		encs[i] = sealedCollisionState(i, 7, 21)
		st, ref := v.claim(encs[i], hashBytes(encs[i]), 0, uint64(i+1), false, 1, &pc)
		if st != ClaimNew {
			t.Fatalf("claim %d = %d, want ClaimNew", i, st)
		}
		refs[i] = ref
	}
	v.seal(1, refs, refs)
	if states, _, _ := v.sealedStats(); states != n {
		t.Fatalf("sealed %d states, want %d", states, n)
	}
	for i := range encs {
		ref, ok := v.find(encs[i], hashBytes(encs[i]))
		if !ok || ref != refs[i] {
			t.Fatalf("find(%d) = (%d,%v), want (%d,true)", i, ref, ok, refs[i])
		}
		if got := v.bytesOf(refs[i]); !bytes.Equal(got, encs[i]) {
			t.Fatalf("ref %d reads %q, want %q", i, got, encs[i])
		}
	}
	// A state with the same (shard, cell, remainder) signature that was
	// never inserted must not be accepted by the quotient filter.
	ghost := sealedCollisionState(999, 7, 21)
	if ref, ok := v.find(ghost, hashBytes(ghost)); ok {
		t.Fatalf("find(ghost) = (%d,true), want miss", ref)
	}
	if st, _ := v.claim(ghost, hashBytes(ghost), 0, 100, false, 100, &pc); st != ClaimNew {
		t.Fatalf("claim(ghost) = %d, want ClaimNew", st)
	}
}

// sealRec is one state of a seal scenario.
type sealRec struct {
	enc    []byte
	parent int    // index into the scenario's records, -1 = none
	pword  uint32 // parent value passed to claim; the dist layout stores it as is
}

// sealTwin is one visited set driven through a seal scenario, with the
// ref of every record as its seals rewrote it.
type sealTwin struct {
	v       *visitedSet
	workers int
	refs    []uint32
	pending [2][]uint32 // claimed since the last seal, and the batch before
}

// runSealScenario drives one visited set per entry of workers through
// the same pseudo-random population — arbitrary lengths (inline and
// intern-overflow), shared prefixes, random parent edges — claimed one
// key at a time and sealed in batches of up to batch states, each set
// sealing with its own worker count. Like the engine, a boundary seals
// the batch before the latest one, so the latest survives as live
// entries that compaction must move; the last two are sealed at the
// end. After every seal each set must be byte-identical to the first:
// shard by shard (arena, restarts, quotiented index, count, live base,
// ordinal count, live slots and live index), in the refs its seal
// rewrote, and in its resident and peak byte counts.
func runSealScenario(t *testing.T, seed uint64, maxLen, batch uint8, parentIsRef bool, workers ...int) ([]sealRec, []*sealTwin) {
	t.Helper()
	maxLen, batch = max(maxLen, 1), max(batch, 1)
	const n = 600
	twins := make([]*sealTwin, len(workers))
	for i, w := range workers {
		twins[i] = &sealTwin{v: newVisitedSet(n + 1), workers: w}
		twins[i].v.parentIsRef = parentIsRef
	}
	var pc probeCounter

	rng := seed
	next := func() uint64 { // splitmix64
		rng += 0x9e3779b97f4a7c15
		z := rng
		z = (z ^ (z >> 30)) * 0xbf58476d1ce4b9fe
		z = (z ^ (z >> 27)) * 0x94d049bb133111eb
		return z ^ (z >> 31)
	}
	seal := func(batch []uint32, tw *sealTwin) {
		tw.v.seal(tw.workers, batch, tw.refs, tw.pending[0])
	}
	boundary := func(final bool) {
		for _, tw := range twins {
			seal(tw.pending[1], tw)
			tw.pending[1], tw.pending[0] = tw.pending[0], tw.pending[1][:0]
			if final {
				seal(tw.pending[1], tw)
				tw.pending[1] = tw.pending[1][:0]
			}
		}
		for _, tw := range twins[1:] {
			requireSameSealTwins(t, twins[0], tw)
		}
	}

	var recs []sealRec
	seen := map[string]bool{}
	key := uint64(1)
	for i := 0; i < n; i++ {
		l := int(next()%uint64(maxLen)) + 1
		enc := make([]byte, l)
		// Shared-prefix populations stress the delta codec; fully
		// random ones stress the restart path.
		copy(enc, "prefix/prefix/prefix/prefix")
		for j := l - 1; j >= 0 && j >= l-3; j-- {
			enc[j] = byte(next())
		}
		if seen[string(enc)] {
			continue
		}
		seen[string(enc)] = true
		rec := sealRec{enc: enc, parent: -1}
		if len(recs) > 0 && next()%4 != 0 {
			rec.parent = int(next() % uint64(len(recs)))
			rec.pword = twins[0].refs[rec.parent]
		}
		for _, tw := range twins {
			var pref uint32
			if rec.parent >= 0 {
				pref = tw.refs[rec.parent]
			}
			st, ref := tw.v.claim(enc, hashBytes(enc), pref, key, rec.parent >= 0, key, &pc)
			if st != ClaimNew {
				t.Fatalf("claim %q = %d, want ClaimNew", enc, st)
			}
			tw.refs = append(tw.refs, ref)
			tw.pending[0] = append(tw.pending[0], ref)
		}
		key++
		recs = append(recs, rec)
		if len(twins[0].pending[0]) >= int(batch) {
			boundary(false)
		}
	}
	boundary(true)
	return recs, twins
}

// requireSameSealTwins fails unless b's visited set and refs are
// byte-identical to a's (see runSealScenario).
func requireSameSealTwins(t *testing.T, a, b *sealTwin) {
	t.Helper()
	if !reflect.DeepEqual(a.refs, b.refs) {
		t.Fatalf("workers %d vs %d: rewritten refs differ", a.workers, b.workers)
	}
	if ar, br := a.v.resident.Load(), b.v.resident.Load(); ar != br {
		t.Fatalf("workers %d vs %d: resident %d != %d", a.workers, b.workers, ar, br)
	}
	if ap, bp := a.v.peak.Load(), b.v.peak.Load(); ap != bp {
		t.Fatalf("workers %d vs %d: peak %d != %d", a.workers, b.workers, ap, bp)
	}
	for s := range a.v.shards {
		sa, sb := &a.v.shards[s], &b.v.shards[s]
		if sa.ordCount != sb.ordCount || sa.liveBase != sb.liveBase {
			t.Fatalf("workers %d vs %d, shard %d: ordCount/liveBase %d/%d != %d/%d",
				a.workers, b.workers, s, sa.ordCount, sa.liveBase, sb.ordCount, sb.liveBase)
		}
		if !reflect.DeepEqual(*sa.index.Load(), *sb.index.Load()) {
			t.Fatalf("workers %d vs %d, shard %d: live index differs", a.workers, b.workers, s)
		}
		for p := uint32(0); p < sa.ordCount-sa.liveBase; p++ {
			if *sa.entryAtPos(p) != *sb.entryAtPos(p) {
				t.Fatalf("workers %d vs %d, shard %d: live slot %d differs", a.workers, b.workers, s, p)
			}
		}
		ta, tb := &sa.sealed, &sb.sealed
		if ta.count != tb.count || !bytes.Equal(ta.blob, tb.blob) ||
			!reflect.DeepEqual(ta.restarts, tb.restarts) || !reflect.DeepEqual(ta.index, tb.index) {
			t.Fatalf("workers %d vs %d, shard %d: sealed tier differs", a.workers, b.workers, s)
		}
	}
}

// TestSealParallelMatchesSerial: a seal spread over 4 workers must leave
// exactly the visited set, refs and resident counters a 1-worker seal
// does, in both parent layouts. runSealScenario compares the sets after
// every seal.
func TestSealParallelMatchesSerial(t *testing.T) {
	for _, parentIsRef := range []bool{true, false} {
		for seed := uint64(1); seed <= 6; seed++ {
			for _, c := range []struct{ maxLen, batch uint8 }{{3, 40}, {16, 1}, {24, 200}, {255, 90}} {
				runSealScenario(t, seed, c.maxLen, c.batch, parentIsRef, 1, 4)
			}
		}
	}
}

// FuzzSealedTier feeds seal scenarios (runSealScenario) in both parent
// layouts — the engine's delta-coded refs and the distributed store's
// fixed 4-byte words — through a 1-worker and a 4-worker twin, which
// must stay byte-identical, and cross-checks the serial twin against
// the scenario's records: every state found at its ref, read back,
// with its parent, and re-claimed as a duplicate. Finally every shard's
// arena is swept by the checked decoder, the trusted one and the
// encoding-only one (find's confirm) side by side, which must agree on
// every ordinal.
func FuzzSealedTier(f *testing.F) {
	f.Add(uint64(1), uint8(3), uint8(40))
	f.Add(uint64(0xdeadbeef), uint8(16), uint8(1))
	f.Add(uint64(42), uint8(24), uint8(200))
	f.Add(uint64(7), uint8(255), uint8(90))
	f.Fuzz(func(t *testing.T, seed uint64, maxLen uint8, batch uint8) {
		for _, parentIsRef := range []bool{true, false} {
			recs, twins := runSealScenario(t, seed, maxLen, batch, parentIsRef, 1, 4)
			checkSealedRecords(t, twins[0], recs, int(max(maxLen, 1)))
		}
	})
}

// checkSealedRecords cross-checks a fully sealed twin against the
// records it was built from, then sweeps its arenas with every decoder.
func checkSealedRecords(t *testing.T, tw *sealTwin, recs []sealRec, maxEnc int) {
	t.Helper()
	v := tw.v
	var pc probeCounter
	states, _, _ := v.sealedStats()
	if states != int64(len(recs)) {
		t.Fatalf("sealed %d states, want %d", states, len(recs))
	}
	key := uint64(len(recs) + 1)
	for j, r := range recs {
		ref, ok := v.find(r.enc, hashBytes(r.enc))
		if !ok || ref != tw.refs[j] {
			t.Fatalf("find(%q) = (%d,%v), want (%d,true)", r.enc, ref, ok, tw.refs[j])
		}
		if got := v.bytesOf(ref); !bytes.Equal(got, r.enc) {
			t.Fatalf("ref %d reads %q, want %q", j, got, r.enc)
		}
		if v.parentIsRef {
			pref, has := v.parentOf(ref)
			if has != (r.parent >= 0) || (has && pref != tw.refs[r.parent]) {
				t.Fatalf("ref %d parent = (%d,%v), want (%v,%v)", j, pref, has, r.parent, r.parent >= 0)
			}
		} else {
			// The dist layout stores the claim-time parent value as is.
			want := uint64(0)
			if r.parent >= 0 {
				want = uint64(r.pword)<<1 | 1
			}
			if got := v.parentWordOf(ref); got != want {
				t.Fatalf("ref %d parent word = %#x, want %#x", j, got, want)
			}
		}
		if st, _ := v.claim(r.enc, hashBytes(r.enc), 0, key, false, key, &pc); st != ClaimDup {
			t.Fatalf("re-claim of %q = %d, want ClaimDup", r.enc, st)
		}
	}
	var checked, trusted, encOnly sealedDecoder
	for s := range v.shards {
		ss := &v.shards[s].sealed
		if ss.count == 0 {
			continue
		}
		checked.startAt(ss, 0, v.parentIsRef)
		trusted.startAt(ss, 0, v.parentIsRef)
		encOnly.startAt(ss, 0, v.parentIsRef)
		for checked.ord < ss.count {
			ord := checked.ord
			if err := checked.stepChecked(maxEnc); err != nil {
				t.Fatalf("shard %d ord %d: %v", s, ord, err)
			}
			trusted.step()
			encOnly.skipStep()
			if !bytes.Equal(trusted.enc, checked.enc) || trusted.pw != checked.pw || trusted.off != checked.off {
				t.Fatalf("shard %d ord %d: step decodes (%q, %d, off %d), stepChecked (%q, %d, off %d)",
					s, ord, trusted.enc, trusted.pw, trusted.off, checked.enc, checked.pw, checked.off)
			}
			if !bytes.Equal(encOnly.enc, checked.enc) || encOnly.off != checked.off {
				t.Fatalf("shard %d ord %d: skipStep decodes (%q, off %d), stepChecked (%q, off %d)",
					s, ord, encOnly.enc, encOnly.off, checked.enc, checked.off)
			}
		}
		if checked.off != len(ss.blob) {
			t.Fatalf("shard %d: decode consumed %d of %d blob bytes", s, checked.off, len(ss.blob))
		}
	}
}

// TestSealNoSealEquivalence runs the same searches with the sealed tier
// on and off: verdict, counts, depth and the full counterexample must
// be identical, and the sealed run must not exceed the unsealed peak.
func TestSealNoSealEquivalence(t *testing.T) {
	cases := []struct {
		name string
		run  func(Options) (Result, error)
		viol bool
		// Fixed per-shard overheads (seal scratch, quotient index)
		// only amortize on real populations; tiny early-stop searches
		// skip the peak comparison.
		wantSmaller bool
	}{
		{"collision-holds", func(o Options) (Result, error) {
			return CheckTransitionInvariant(collisionModel{n: 3000},
				func(from, to State) bool { return true }, o)
		}, false, true},
		{"diamond-violation", func(o Options) (Result, error) {
			return CheckTransitionInvariant(diamondModel{k: 30},
				func(from, to State) bool { return to != encodeXY(17, 17) }, o)
		}, true, false},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			var sealedStats, plainStats Stats
			for _, w := range workerCounts {
				sealedRes, err1 := tc.run(Options{Workers: w, Stats: func(s Stats) { sealedStats = s }})
				plainRes, err2 := tc.run(Options{Workers: w, NoSeal: true, Stats: func(s Stats) { plainStats = s }})
				if err1 != nil || err2 != nil {
					t.Fatalf("workers=%d: errs %v / %v", w, err1, err2)
				}
				if !equalResults(sealedRes, plainRes) {
					t.Fatalf("workers=%d: sealed %+v != unsealed %+v", w, sealedRes, plainRes)
				}
				if sealedRes.Holds == tc.viol {
					t.Fatalf("workers=%d: verdict %v, want violation=%v", w, sealedRes.Holds, tc.viol)
				}
				if sealedStats.SealedStates == 0 {
					t.Fatalf("workers=%d: sealed run reports no sealed states", w)
				}
				if plainStats.SealedStates != 0 {
					t.Fatalf("workers=%d: NoSeal run reports %d sealed states", w, plainStats.SealedStates)
				}
				if tc.wantSmaller && sealedStats.PeakResidentBytes > plainStats.PeakResidentBytes {
					t.Errorf("workers=%d: sealed peak %d > unsealed peak %d", w,
						sealedStats.PeakResidentBytes, plainStats.PeakResidentBytes)
				}
			}
		})
	}
}

// TestResidentAccountingMemStats cross-checks the visited set's
// self-reported resident bytes against the Go heap: claim and seal a
// population large enough to dwarf fixture noise, then require the
// counted footprint to sit within tolerance of the measured growth.
// Catches both double-counting (counted >> measured) and unaccounted
// structures (counted << measured).
func TestResidentAccountingMemStats(t *testing.T) {
	if testing.Short() {
		t.Skip("multi-MB allocation cross-check")
	}
	var before, after runtime.MemStats
	runtime.GC()
	runtime.ReadMemStats(&before)

	const n = 120000
	v := newVisitedSet(n + 1)
	var pc probeCounter
	var enc [24]byte // > inlineStateBytes: every claim exercises the intern table too
	var pending []uint32
	for i := 0; i < n; i++ {
		b := enc[:16+i%9]
		copy(b, "memaudit")
		b[8] = byte(i)
		b[9] = byte(i >> 8)
		b[10] = byte(i >> 16)
		b[11] = byte(i % 7)
		st, ref := v.claim(b, hashBytes(b), 0, uint64(i+1), false, 1, &pc)
		if st != ClaimNew {
			t.Fatalf("claim %d = %d, want ClaimNew", i, st)
		}
		pending = append(pending, ref)
		if len(pending) == 4096 {
			v.seal(1, pending)
			pending = pending[:0]
		}
	}
	v.seal(1, pending)

	runtime.GC()
	runtime.ReadMemStats(&after)
	measured := int64(after.HeapInuse) - int64(before.HeapInuse)
	counted := v.resident.Load()
	runtime.KeepAlive(v)

	if counted <= 0 || measured <= 0 {
		t.Fatalf("degenerate measurement: counted=%d measured=%d", counted, measured)
	}
	// The one documented approximation is arena slack (blob counted by
	// len, allocated by cap: ≤ 25% + a 4KiB floor), so counted may sit
	// below measured; HeapInuse granularity and test-held slices push
	// the other way. Either way the two must stay the same magnitude.
	ratio := float64(counted) / float64(measured)
	if ratio < 0.5 || ratio > 1.5 {
		t.Errorf("resident accounting %d vs heap growth %d (ratio %.2f) outside [0.5, 1.5]",
			counted, measured, ratio)
	}
}

// interruptSealed runs a diamond search canceled after cutAt levels,
// flushing a checkpoint to path, and returns the checkpoint file bytes.
func interruptSealed(t *testing.T, k, cutAt int, path string, noSeal bool) []byte {
	t.Helper()
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	_, err := CheckTransitionInvariant(diamondModel{k: k},
		func(from, to State) bool { return true },
		Options{
			Context:        ctx,
			NoSeal:         noSeal,
			CheckpointPath: path,
			Progress:       cancelAfterLevels(cutAt, cancel),
		})
	if !errors.Is(err, ErrInterrupted) {
		t.Fatalf("interrupted run: got %v, want ErrInterrupted", err)
	}
	data, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	return data
}

// TestCheckpointV5RoundTrip: an interrupted sealed search writes the v5
// format, and ReadCheckpoint materializes it to exactly the classic
// checkpoint an unsealed run would have written at the same cut.
func TestCheckpointV5RoundTrip(t *testing.T) {
	dir := t.TempDir()
	p5 := filepath.Join(dir, "cp5")
	p4 := filepath.Join(dir, "cp4")
	d5 := interruptSealed(t, 40, 10, p5, false)
	d4 := interruptSealed(t, 40, 10, p4, true)

	if v := d5[len(checkpointMagic)]; uint64(v) != checkpointVersionSealed {
		t.Fatalf("sealed checkpoint version = %d, want %d", v, checkpointVersionSealed)
	}
	if v := d4[len(checkpointMagic)]; uint64(v) != checkpointVersion {
		t.Fatalf("unsealed checkpoint version = %d, want %d", v, checkpointVersion)
	}
	if len(d5) >= len(d4) {
		t.Errorf("v5 file %dB not smaller than v4 %dB", len(d5), len(d4))
	}

	got, err := ReadCheckpoint(p5)
	if err != nil {
		t.Fatalf("read v5: %v", err)
	}
	want, err := ReadCheckpoint(p4)
	if err != nil {
		t.Fatalf("read v4: %v", err)
	}
	if !reflect.DeepEqual(got, want) {
		t.Fatalf("materialized v5 differs from classic v4:\n got %+v\nwant %+v", got, want)
	}
}

// TestCheckpointV5CorruptionDetected: every single-byte flip of a v5
// file must be rejected.
func TestCheckpointV5CorruptionDetected(t *testing.T) {
	path := filepath.Join(t.TempDir(), "cp")
	data := interruptSealed(t, 14, 6, path, false)
	for i := range data {
		bad := append([]byte(nil), data...)
		bad[i] ^= 0x40
		if err := os.WriteFile(path, bad, 0o644); err != nil {
			t.Fatal(err)
		}
		if _, err := ReadCheckpoint(path); !errors.Is(err, ErrCheckpointCorrupt) {
			t.Fatalf("flip at byte %d: got %v, want ErrCheckpointCorrupt", i, err)
		}
	}
	for _, n := range []int{0, 1, len(checkpointMagic), len(data) / 2, len(data) - 1} {
		if err := os.WriteFile(path, data[:n], 0o644); err != nil {
			t.Fatal(err)
		}
		if _, err := ReadCheckpoint(path); !errors.Is(err, ErrCheckpointCorrupt) {
			t.Fatalf("truncation to %d bytes: got %v, want ErrCheckpointCorrupt", n, err)
		}
	}
}

// TestSealedSnapStructuralCorruption mutates a parsed v5 snapshot past
// the checksum — a truncated arena, a parent word aimed outside the
// sealed tier, a live key at or above the minted base — and requires
// both consumers (materialize for v4-class readers, restoreSealed for
// native resume) to reject rather than mis-decode.
func TestSealedSnapStructuralCorruption(t *testing.T) {
	path := filepath.Join(t.TempDir(), "cp")
	interruptSealed(t, 20, 8, path, false)

	parse := func() *sealedSnap {
		t.Helper()
		version, r, err := readCheckpointEnvelope(path)
		if err != nil || version != checkpointVersionSealed {
			t.Fatalf("envelope: version=%d err=%v", version, err)
		}
		s5, err := parseSealedSnap(r)
		if err != nil {
			t.Fatal(err)
		}
		return s5
	}

	check := func(name string, mutate func(*sealedSnap)) {
		s5 := parse()
		mutate(s5)
		if _, err := s5.materialize(); err == nil {
			t.Errorf("%s: materialize accepted the corruption", name)
		}
		v := newVisitedSet(1 << 20)
		if _, err := v.restoreSealed(s5); err == nil {
			t.Errorf("%s: restoreSealed accepted the corruption", name)
		}
	}

	check("truncated-blob", func(s5 *sealedSnap) {
		for i := range s5.shards {
			if n := len(s5.shards[i].blob); n > 1 {
				s5.shards[i].blob = s5.shards[i].blob[:n-1]
				return
			}
		}
		t.Fatal("fixture has no sealed blob to truncate")
	})
	check("dangling-parent", func(s5 *sealedSnap) {
		for i := range s5.live {
			if s5.live[i].pw != 0 {
				s5.live[i].pw = uint64(makeRef(0, uint32(s5.shards[0].count))) + 1
				return
			}
		}
		t.Fatal("fixture has no live parent to corrupt")
	})
	// Live keys must stay under the recorded nextBase; only restoreSealed
	// enforces this (materialize drops keys by design).
	s5 := parse()
	if len(s5.live) == 0 {
		t.Fatal("fixture has no live entries")
	}
	s5.live[0].key = s5.nextBase
	v := newVisitedSet(1 << 20)
	if _, err := v.restoreSealed(s5); err == nil {
		t.Error("key-past-base: restoreSealed accepted the corruption")
	}
}

// TestResumeNoSealV5Refused: a v5 checkpoint cannot resume with sealing
// disabled (the restored tier would be unreachable), with a message
// naming the flag; the checkpoint must survive the refusal. The inverse
// direction — a NoSeal run's v4 file resumed by a sealing engine — must
// work and match the clean result.
func TestResumeNoSealV5Refused(t *testing.T) {
	m := diamondModel{k: 40}
	inv := func(from, to State) bool { return true }
	path := filepath.Join(t.TempDir(), "cp")
	interruptSealed(t, 40, 10, path, false)

	_, err := CheckTransitionInvariant(m, inv, Options{NoSeal: true, ResumePath: path})
	if err == nil || !strings.Contains(err.Error(), "no-seal") {
		t.Fatalf("v5 resume under NoSeal: got %v, want a no-seal refusal", err)
	}
	if _, serr := os.Stat(path); serr != nil {
		t.Fatalf("checkpoint gone after refused resume: %v", serr)
	}

	clean, err := CheckTransitionInvariant(m, inv, Options{})
	if err != nil {
		t.Fatal(err)
	}
	interruptSealed(t, 40, 10, path, true) // v4 file
	resumed, err := CheckTransitionInvariant(m, inv, Options{ResumePath: path, CheckpointPath: path})
	if err != nil {
		t.Fatalf("sealed engine resuming v4: %v", err)
	}
	if !equalResults(resumed, clean) {
		t.Fatalf("v4-resumed %+v differs from clean %+v", resumed, clean)
	}
}

// TestCheckpointLegacyV4SealedResume hand-builds a version-4 file —
// byte-for-byte what a pre-sealed-tier build would have written — from
// a mid-search snapshot and proves the sealed engine restores it (the
// restored states migrate at the first boundary) to the clean result,
// at every worker count.
func TestCheckpointLegacyV4SealedResume(t *testing.T) {
	m := diamondModel{k: 40}
	inv := func(from, to State) bool { return true }
	clean, err := CheckTransitionInvariant(m, inv, Options{})
	if err != nil {
		t.Fatal(err)
	}
	path := filepath.Join(t.TempDir(), "cp")
	interruptSealed(t, 40, 10, path, false)
	cp, err := ReadCheckpoint(path) // materialize the v5 file...
	if err != nil {
		t.Fatal(err)
	}
	// ...and re-serialize it through the v4 writer, as a legacy build
	// resuming this search would have left it.
	if err := WriteCheckpoint(path, cp); err != nil {
		t.Fatal(err)
	}
	data, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	if v := data[len(checkpointMagic)]; uint64(v) != checkpointVersion {
		t.Fatalf("legacy fixture version = %d, want %d", v, checkpointVersion)
	}
	for _, w := range workerCounts {
		resumed, err := CheckTransitionInvariant(m, inv, Options{Workers: w, ResumePath: path})
		if err != nil {
			t.Fatalf("workers=%d: legacy v4 resume: %v", w, err)
		}
		if !equalResults(resumed, clean) {
			t.Fatalf("workers=%d: resumed %+v differs from clean %+v", w, resumed, clean)
		}
	}
}
