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
	v := newVisitedSet(levels*perLevel+1, allShards)
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
	v := newVisitedSet(n+1, allShards)
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
	parent int // index into the scenario's records, -1 = none
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
func runSealScenario(t *testing.T, seed uint64, maxLen, batch uint8, workers ...int) ([]sealRec, []*sealTwin) {
	t.Helper()
	maxLen, batch = max(maxLen, 1), max(batch, 1)
	const n = 600
	twins := make([]*sealTwin, len(workers))
	for i, w := range workers {
		twins[i] = &sealTwin{v: newVisitedSet(n+1, allShards), workers: w}
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
// does. runSealScenario compares the sets after every seal.
func TestSealParallelMatchesSerial(t *testing.T) {
	for seed := uint64(1); seed <= 6; seed++ {
		for _, c := range []struct{ maxLen, batch uint8 }{{3, 40}, {16, 1}, {24, 200}, {255, 90}} {
			runSealScenario(t, seed, c.maxLen, c.batch, 1, 4)
		}
	}
}

// FuzzSealedTier feeds seal scenarios (runSealScenario) through a
// 1-worker and a 4-worker twin, which must stay byte-identical, and
// cross-checks the serial twin against
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
		recs, twins := runSealScenario(t, seed, maxLen, batch, 1, 4)
		checkSealedRecords(t, twins[0], recs, int(max(maxLen, 1)))
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
		pref, has := v.parentOf(ref)
		if has != (r.parent >= 0) || (has && pref != tw.refs[r.parent]) {
			t.Fatalf("ref %d parent = (%d,%v), want (%v,%v)", j, pref, has, r.parent, r.parent >= 0)
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
		checked.startAt(ss, 0)
		trusted.startAt(ss, 0)
		encOnly.startAt(ss, 0)
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
	v := newVisitedSet(n+1, allShards)
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

// interruptSearch runs a transition-invariant search of m under opts,
// cancelled after cutAt levels (0: before the first), flushing a
// checkpoint to path, and returns the checkpoint's bytes (chainBytes).
func interruptSearch(t testing.TB, m Model, cutAt int, path string, opts Options) []byte {
	t.Helper()
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	if cutAt == 0 {
		cancel()
	} else {
		opts.Progress = cancelAfterLevels(cutAt, cancel)
	}
	opts.Context = ctx
	opts.CheckpointPath = path
	_, err := CheckTransitionInvariant(m, func(from, to State) bool { return true }, opts)
	if !errors.Is(err, ErrInterrupted) {
		t.Fatalf("interrupted run: got %v, want ErrInterrupted", err)
	}
	return chainBytes(t, path)
}

// interruptSealed runs a diamond search cancelled after cutAt levels,
// flushing a checkpoint to path, and returns the checkpoint's bytes.
func interruptSealed(t testing.TB, k, cutAt int, path string) []byte {
	t.Helper()
	return interruptSearch(t, diamondModel{k: k}, cutAt, path, Options{})
}

// TestCheckpointV5RoundTrip: the checkpoint is a function of the search
// state. A search cut at the same level writes byte-identical chain
// files at every worker count — including the depth-0 cut, before any
// seal — for a plain, a reduced, a wide (levels span many steal chunks,
// so claims arrive out of key order), an interned-encoding and an
// empty-encoding model. A search resumed from such a chain and cut again
// continues it into the checkpoint an uncut run's cut holds: the same
// arenas, frontier and header, its own segment holding only the levels
// since the first cut.
func TestCheckpointV5RoundTrip(t *testing.T) {
	dir := t.TempDir()
	models := []struct {
		name string
		m    Model
		cuts []int
	}{
		{"diamond", diamondModel{k: 40}, []int{0, 1, 10}},
		{"colored", coloredModel{max: 400}, []int{0, 3}},
		{"wide", collisionModel{n: 3000}, []int{0, 5, 9}},
		{"overflow", overflowModel{n: 40}, []int{3}},
		{"empty-encoding", emptyStringModel{}, []int{1}},
	}
	for _, tc := range models {
		want := map[int][]byte{}
		for _, w := range workerCounts {
			for _, cut := range tc.cuts {
				got := interruptSearch(t, tc.m, cut, filepath.Join(dir, "s"), Options{Workers: w})
				if v := got[len(chainFormat.Magic)]; uint64(v) != chainFormat.Version {
					t.Fatalf("%s workers=%d cut=%d: version %d, want %d", tc.name, w, cut, v, chainFormat.Version)
				}
				if w == workerCounts[0] {
					want[cut] = got
				} else if !bytes.Equal(got, want[cut]) {
					t.Fatalf("%s workers=%d cut=%d: checkpoint differs from workers=1", tc.name, w, cut)
				}
			}
		}
	}

	// Second cuts: resume the wide search's level-5 chain and cut it four
	// levels later.
	first := filepath.Join(dir, "first")
	interruptSearch(t, collisionModel{n: 3000}, 5, first, Options{})
	for _, w := range workerCounts {
		recut, direct := filepath.Join(dir, "recut"), filepath.Join(dir, "direct")
		interruptSearch(t, collisionModel{n: 3000}, 4, recut, Options{Workers: w, ResumePath: first})
		interruptSearch(t, collisionModel{n: 3000}, 9, direct, Options{Workers: w})
		if got, want := readEngineSnap(t, recut), readEngineSnap(t, direct); !reflect.DeepEqual(got, want) {
			t.Fatalf("workers=%d: second cut differs from the uncut run's", w)
		}
		if files := chainFiles(t, recut); len(files) != 4 || filepath.Base(files[1]) != "first.l5.seg" {
			t.Fatalf("workers=%d: second cut's chain %v, want the first cut's segment and its own", w, files)
		}
	}
}

// resumeRefusal reads and restores the engine checkpoint at path,
// returning the refusal.
func resumeRefusal(path string) error {
	s5, err := readSealedSnap(path)
	if err != nil {
		return err
	}
	return restoreFresh(s5, 1<<20)
}

// TestCheckpointV5CorruptionDetected: every single-byte flip and every
// truncation of any file of an engine chain — resumed and cut again, so
// it holds two segments — must be refused by the engine's resume path.
func TestCheckpointV5CorruptionDetected(t *testing.T) {
	path := filepath.Join(t.TempDir(), "cp")
	interruptSealed(t, 14, 3, path)
	interruptSearch(t, diamondModel{k: 14}, 3, path, Options{ResumePath: path})
	if err := resumeRefusal(path); err != nil {
		t.Fatalf("pristine chain: %v", err)
	}
	if n := len(chainFiles(t, path)); n != 4 {
		t.Fatalf("chain of %d files, want a manifest, two segments and a frontier", n)
	}
	eachChainDamage(t, path, func(what string) {
		if err := resumeRefusal(path); !errors.Is(err, ErrCheckpointCorrupt) {
			t.Fatalf("%s: got %v, want ErrCheckpointCorrupt", what, err)
		}
	})
}

// arenaRecords decodes a snapshot shard's arena into its encodings and
// parent words.
func arenaRecords(t *testing.T, sn *sealedShardSnap) (encs [][]byte, pws []uint64) {
	t.Helper()
	ss := &sealedShard{count: sn.count, blob: sn.blob, restarts: sn.restarts}
	var d sealedDecoder
	d.startAt(ss, 0)
	for d.ord < ss.count {
		if err := d.stepChecked(len(ss.blob)); err != nil {
			t.Fatal(err)
		}
		encs = append(encs, append([]byte(nil), d.enc...))
		pws = append(pws, d.pw)
	}
	return encs, pws
}

// setArena re-encodes a snapshot shard's arena from records.
func setArena(sn *sealedShardSnap, encs [][]byte, pws []uint64) {
	var ss sealedShard
	for i := range encs {
		ss.appendEntry(encs[i], pws[i])
	}
	*sn = sealedShardSnap{count: ss.count, restarts: ss.restarts, blob: ss.blob}
}

// TestSealedSnapStructuralCorruption mutates a parsed v5 snapshot past
// the checksum — a truncated arena, a parent word aimed outside the
// sealed tier, a live key at or above the minted base, an arena holding
// one encoding twice, an entry stored in a shard its hash does not
// select — and requires the restore to refuse it rather than mis-index
// it.
func TestSealedSnapStructuralCorruption(t *testing.T) {
	path := filepath.Join(t.TempDir(), "cp")
	interruptSealed(t, 20, 8, path)

	check := func(name, want string, mutate func(*sealedSnap)) {
		t.Helper()
		s5 := readEngineSnap(t, path)
		mutate(s5)
		err := restoreFresh(s5, 1<<20)
		if !errors.Is(err, ErrCheckpointCorrupt) || !strings.Contains(err.Error(), want) {
			t.Errorf("%s: got %v, want ErrCheckpointCorrupt (%s)", name, err, want)
		}
	}
	// busiest returns the indexes of the two shards with the most sealed
	// entries.
	busiest := func(s5 *sealedSnap) (a, b int) {
		for i := range s5.shards {
			if s5.shards[i].count > s5.shards[a].count {
				a, b = i, a
			} else if i != a && s5.shards[i].count > s5.shards[b].count {
				b = i
			}
		}
		if s5.shards[b].count < 2 {
			t.Fatal("fixture has too few sealed entries")
		}
		return a, b
	}

	check("truncated-blob", "invalid sealed-arena record", func(s5 *sealedSnap) {
		a, _ := busiest(s5)
		s5.shards[a].blob = s5.shards[a].blob[:len(s5.shards[a].blob)-1]
	})
	check("dangling-parent", "parent ref beyond sealed tier", func(s5 *sealedSnap) {
		for i := range s5.live {
			if s5.live[i].pw != 0 {
				s5.live[i].pw = uint64(makeRef(0, s5.shards[0].count)) + 1
				return
			}
		}
		t.Fatal("fixture has no live parent to corrupt")
	})
	check("key-past-base", "at or past the resumed base", func(s5 *sealedSnap) {
		if len(s5.live) == 0 {
			t.Fatal("fixture has no live entries")
		}
		s5.live[0].key = s5.NextBase
	})
	check("duplicate-entry", "duplicate sealed entry", func(s5 *sealedSnap) {
		a, _ := busiest(s5)
		encs, pws := arenaRecords(t, &s5.shards[a])
		encs[1], pws[1] = encs[0], pws[0]
		setArena(&s5.shards[a], encs, pws)
	})
	check("wrong-shard", "entry belongs in shard", func(s5 *sealedSnap) {
		a, b := busiest(s5)
		encs, pws := arenaRecords(t, &s5.shards[a])
		bEncs, bPws := arenaRecords(t, &s5.shards[b])
		setArena(&s5.shards[b], append(bEncs, encs[0]), append(bPws, pws[0]))
	})
}

// refusingDist is a Dist backend that must never be made: the searches
// handed it are refused before any backend exists.
type refusingDist struct{ t *testing.T }

func (d refusingDist) NewBackend(Model, StateInvariantBytes, TransitionInvariantBytes, bool, *Chain, Options) (LevelBackend, error) {
	d.t.Fatal("dist backend made for a search that should be refused")
	return nil, nil
}

// TestResumeNoSealV5Refused: the unsealed oracle neither writes nor
// resumes checkpoints, nor runs distributed. Asked to, it refuses before
// exploring: it writes no file and leaves an existing one intact. A
// sealing search resumes the same checkpoint to the clean result at
// every worker count, and refuses a version-4 (per-state delta) file,
// leaving it in place.
func TestResumeNoSealV5Refused(t *testing.T) {
	m := diamondModel{k: 40}
	inv := func(from, to State) bool { return true }
	clean, err := CheckTransitionInvariant(m, inv, Options{})
	if err != nil {
		t.Fatal(err)
	}
	dir := t.TempDir()
	path := filepath.Join(dir, "cp")
	data := interruptSealed(t, 40, 10, path)
	fresh := filepath.Join(dir, "fresh")
	for name, opts := range map[string]Options{
		"checkpoint": {noSeal: true, CheckpointPath: fresh},
		"resume":     {noSeal: true, ResumePath: path},
		"both":       {noSeal: true, ResumePath: path, CheckpointPath: path},
		"dist":       {noSeal: true, Dist: refusingDist{t}},
	} {
		res, err := CheckTransitionInvariant(m, inv, opts)
		if err == nil || !strings.Contains(err.Error(), "unsealed oracle") || res.StatesExplored != 0 {
			t.Fatalf("%s: oracle search got (%+v, %v), want a refusal before exploring", name, res, err)
		}
		if _, err := os.Stat(fresh); !errors.Is(err, os.ErrNotExist) {
			t.Fatalf("%s: refused oracle search wrote a checkpoint", name)
		}
		if after := chainBytes(t, path); !bytes.Equal(after, data) {
			t.Fatalf("%s: refused oracle search modified the checkpoint", name)
		}
	}

	for _, w := range workerCounts {
		interruptSealed(t, 40, 10, path)
		resumed, err := CheckTransitionInvariant(m, inv, Options{Workers: w, ResumePath: path, CheckpointPath: path})
		if err != nil {
			t.Fatalf("workers=%d: resume: %v", w, err)
		}
		if !equalResults(resumed, clean) {
			t.Fatalf("workers=%d: resumed %+v differs from clean %+v", w, resumed, clean)
		}
		if _, err := os.Stat(path); !errors.Is(err, os.ErrNotExist) {
			t.Fatalf("workers=%d: checkpoint left after conclusive resume", w)
		}
	}

	if err := os.WriteFile(path, legacyBytes(4, sampleLegacy()), 0o644); err != nil {
		t.Fatal(err)
	}
	_, err = CheckTransitionInvariant(m, inv, Options{ResumePath: path})
	if !errors.Is(err, ErrCheckpointCorrupt) || !strings.Contains(err.Error(), "unsupported version 4") {
		t.Fatalf("v4 resume: got %v, want ErrCheckpointCorrupt (unsupported version 4)", err)
	}
	if _, err := os.Stat(path); err != nil {
		t.Fatalf("checkpoint gone after refused resume: %v", err)
	}
}

// TestCheckpointLegacyV4SealedResume: a version-4 file — what the engine
// wrote for unsealed searches before every search wrote version 5,
// here rebuilt from the live tier of a real mid-search checkpoint — is
// refused as corrupt at every worker count, and the file is left
// byte-for-byte intact.
func TestCheckpointLegacyV4SealedResume(t *testing.T) {
	m := diamondModel{k: 40}
	inv := func(from, to State) bool { return true }
	path := filepath.Join(t.TempDir(), "cp")
	interruptSealed(t, 40, 10, path)
	s5 := readEngineSnap(t, path)
	lc := &legacyCheckpoint{Depth: s5.Depth, ResultDepth: s5.ResultDepth, Transitions: s5.Transitions}
	for _, le := range s5.live {
		lc.Frontier = append(lc.Frontier, State(le.enc))
		lc.Visited = append(lc.Visited, legacyEntry{State: State(le.enc)})
	}
	data := legacyBytes(4, lc)
	if err := os.WriteFile(path, data, 0o644); err != nil {
		t.Fatal(err)
	}
	for _, w := range workerCounts {
		_, err := CheckTransitionInvariant(m, inv, Options{Workers: w, ResumePath: path, CheckpointPath: path})
		if !errors.Is(err, ErrCheckpointCorrupt) || !strings.Contains(err.Error(), "unsupported version 4") {
			t.Fatalf("workers=%d: legacy v4 resume: got %v, want ErrCheckpointCorrupt (unsupported version 4)", w, err)
		}
		if after, err := os.ReadFile(path); err != nil || !bytes.Equal(after, data) {
			t.Fatalf("workers=%d: refused file was modified or removed (%v)", w, err)
		}
	}
}
