package mc

import (
	"context"
	"encoding/binary"
	"errors"
	"fmt"
	"hash/fnv"
	"io"
	"os"
	"path/filepath"
	"reflect"
	"slices"
	"strings"
	"testing"
)

// legacyCheckpoint is a per-state checkpoint in one of the retired
// formats, versions 1–4: one record per state with its parent's
// encoding. Only the fixtures pinning their refusal still write it.
type legacyCheckpoint struct {
	Depth       int32
	ResultDepth int
	Transitions int
	Reduced     bool
	Fingerprint uint64
	Frontier    []State
	Visited     []legacyEntry
}

type legacyEntry struct {
	State     State
	Parent    State
	HasParent bool
}

// legacyBytes serializes lc as a checksummed file of the given retired
// version, byte for byte what a build of that version wrote: version 1
// adds a claim key and a depth per entry, version 2 has no flags word,
// version 3 no fingerprint, version 4 has both.
func legacyBytes(version uint64, lc *legacyCheckpoint) []byte {
	payload := []byte(chainFormat.Magic)
	u := func(v uint64) { payload = binary.AppendUvarint(payload, v) }
	str := func(s State) {
		u(uint64(len(s)))
		payload = append(payload, s...)
	}
	u(version)
	u(uint64(uint32(lc.Depth)))
	u(uint64(lc.ResultDepth))
	u(uint64(lc.Transitions))
	if version >= 3 {
		flags := uint64(0)
		if lc.Reduced {
			flags |= checkpointFlagReduced
		}
		u(flags)
	}
	if version >= 4 {
		u(lc.Fingerprint)
	}
	u(uint64(len(lc.Frontier)))
	for _, s := range lc.Frontier {
		str(s)
	}
	u(uint64(len(lc.Visited)))
	for i, e := range lc.Visited {
		str(e.State)
		str(e.Parent)
		if version == 1 {
			u(uint64(i * 3)) // claim key
			u(uint64(i))     // depth
		}
		flags := byte(0)
		if e.HasParent {
			flags = 1
		}
		payload = append(payload, flags)
	}
	h := fnv.New64a()
	h.Write(payload)
	return binary.BigEndian.AppendUint64(payload, h.Sum64())
}

func sampleLegacy() *legacyCheckpoint {
	return &legacyCheckpoint{
		Depth:       7,
		ResultDepth: 6,
		Transitions: 1234,
		Fingerprint: 0xdeadbeefcafef00d,
		Frontier:    []State{"b", "", "c\x00d"},
		Visited: []legacyEntry{
			{State: "", Parent: "", HasParent: false},
			{State: "b", Parent: "", HasParent: true},
			{State: "c\x00d", Parent: "b", HasParent: true},
		},
	}
}

// legacyV5Bytes serializes s5 as the retired single-file version 5,
// byte for byte what a build of that version wrote: the header words,
// every shard's arena section, then the live tier.
func legacyV5Bytes(s5 *sealedSnap) []byte {
	payload := []byte(chainFormat.Magic)
	u := func(v uint64) { payload = binary.AppendUvarint(payload, v) }
	bstr := func(b []byte) {
		u(uint64(len(b)))
		payload = append(payload, b...)
	}
	u(5)
	flags := uint64(0)
	if s5.Reduced {
		flags = checkpointFlagReduced
	}
	for _, v := range []uint64{uint64(uint32(s5.Depth)), uint64(s5.ResultDepth), uint64(s5.Transitions), flags, s5.Fingerprint, s5.NextBase} {
		u(v)
	}
	for _, sn := range s5.shards {
		u(uint64(sn.count))
		prev := uint32(0)
		for _, r := range sn.restarts {
			u(uint64(r - prev))
			prev = r
		}
		bstr(sn.blob)
	}
	u(uint64(len(s5.live)))
	for _, le := range s5.live {
		bstr(le.enc)
		u(le.key)
		u(le.pw)
	}
	h := fnv.New64a()
	h.Write(payload)
	return binary.BigEndian.AppendUint64(payload, h.Sum64())
}

// readSealedSnap loads the checkpoint whose manifest is at path over
// every shard; nothing to resume yields nil.
func readSealedSnap(path string) (*sealedSnap, error) {
	c, err := OpenChain(path)
	if err != nil || c == nil {
		return nil, err
	}
	return c.load(allShards)
}

// writeSealedSnap writes s5 as a fresh one-barrier chain at path.
func writeSealedSnap(path string, s5 *sealedSnap) error {
	c, err := ContinueChain(path, nil)
	if err != nil {
		return err
	}
	return c.writeBarrier(s5)
}

// chainFiles lists the checkpoint at path: the manifest, then every file
// it lists in order.
func chainFiles(t testing.TB, path string) []string {
	t.Helper()
	c, err := OpenChain(path)
	if err != nil || c == nil {
		t.Fatalf("chain %s: %v (nil=%v)", path, err, c == nil)
	}
	files := []string{path}
	for _, f := range append(slices.Clone(c.segs), c.fronts...) {
		files = append(files, filepath.Join(filepath.Dir(path), f.name))
	}
	return files
}

// chainBytes is the checkpoint at path as bytes: its files' contents in
// chainFiles order.
func chainBytes(t testing.TB, path string) []byte {
	t.Helper()
	var out []byte
	for _, f := range chainFiles(t, path) {
		data, err := os.ReadFile(f)
		if err != nil {
			t.Fatal(err)
		}
		out = append(out, data...)
	}
	return out
}

// copyChain copies the checkpoint at from to the manifest path to, in
// another directory: the listed files keep their names.
func copyChain(t testing.TB, from, to string) {
	t.Helper()
	for _, f := range chainFiles(t, from) {
		data, err := os.ReadFile(f)
		if err != nil {
			t.Fatal(err)
		}
		dst := filepath.Join(filepath.Dir(to), filepath.Base(f))
		if f == from {
			dst = to
		}
		if err := os.WriteFile(dst, data, 0o644); err != nil {
			t.Fatal(err)
		}
	}
}

// eachChainDamage flips, one at a time, every byte of every file of the
// checkpoint at path, then truncates each file at several lengths, and
// calls check with each damage in place; every file is restored after.
func eachChainDamage(t *testing.T, path string, check func(what string)) {
	t.Helper()
	for _, f := range chainFiles(t, path) {
		data, err := os.ReadFile(f)
		if err != nil {
			t.Fatal(err)
		}
		damage := func(bad []byte, what string) {
			if err := os.WriteFile(f, bad, 0o644); err != nil {
				t.Fatal(err)
			}
			check(fmt.Sprintf("%s: %s", filepath.Base(f), what))
		}
		for i := range data {
			bad := append([]byte(nil), data...)
			bad[i] ^= 0x40
			damage(bad, fmt.Sprintf("flip at byte %d", i))
		}
		for _, n := range []int{0, 1, len(chainFormat.Magic), len(data) / 2, len(data) - 1} {
			damage(data[:n], fmt.Sprintf("truncation to %d bytes", n))
		}
		if err := os.WriteFile(f, data, 0o644); err != nil {
			t.Fatal(err)
		}
	}
}

// readEngineSnap parses the engine checkpoint at path.
func readEngineSnap(t testing.TB, path string) *sealedSnap {
	t.Helper()
	s5, err := readSealedSnap(path)
	if err != nil || s5 == nil {
		t.Fatalf("engine checkpoint %s: %v (nil=%v)", path, err, s5 == nil)
	}
	return s5
}

// restoreFresh restores s5 into a fresh set.
func restoreFresh(s5 *sealedSnap, maxStates int) error {
	_, err := newVisitedSet(maxStates, allShards).restore(s5, allShards)
	return err
}

// snapArena encodes records into a checkpoint shard section.
func snapArena(encs ...string) sealedShardSnap {
	var ss sealedShard
	for i, e := range encs {
		ss.appendEntry([]byte(e), uint64(i%3))
	}
	return sealedShardSnap{count: ss.count, restarts: ss.restarts, blob: ss.blob}
}

// sampleCheckpoint is a small checkpoint's content: two arenas, one past
// its first restart interval, and a live tier that includes the empty
// encoding.
func sampleCheckpoint() *sealedSnap {
	s5 := &sealedSnap{ChainHeader: ChainHeader{Depth: 7, ResultDepth: 6, Transitions: 1234,
		Fingerprint: 0xdeadbeefcafef00d, NextBase: 9 << keySuccBits}}
	var encs []string
	for i := 0; i < sealedRestartEvery+4; i++ {
		encs = append(encs, fmt.Sprintf("state-%02d", i))
	}
	s5.shards[3] = snapArena(encs...)
	s5.shards[40] = snapArena("c\x00d")
	s5.live = []liveSnapEntry{
		{enc: []byte("b"), key: 5 << keySuccBits, pw: uint64(makeRef(3, 2)) + 1},
		{enc: []byte{}, key: 5<<keySuccBits + 1},
		{enc: []byte("c\x00d"), key: 6 << keySuccBits, pw: uint64(makeRef(40, 0)) + 1},
	}
	return s5
}

func writeSample(t *testing.T, path string, s5 *sealedSnap) {
	t.Helper()
	if err := writeSealedSnap(path, s5); err != nil {
		t.Fatalf("write: %v", err)
	}
}

func TestCheckpointCodecRoundTrip(t *testing.T) {
	path := filepath.Join(t.TempDir(), "cp")
	for _, reduced := range []bool{false, true} {
		want := sampleCheckpoint()
		want.Reduced = reduced
		writeSample(t, path, want)
		got := readEngineSnap(t, path)
		if !reflect.DeepEqual(got, want) {
			t.Fatalf("round trip mismatch:\n got %+v\nwant %+v", got, want)
		}
	}
}

// TestCheckpointCorruptionDetected: every byte flip of any file of a
// checkpoint — manifest, segment or frontier — is refused as corrupt.
func TestCheckpointCorruptionDetected(t *testing.T) {
	path := filepath.Join(t.TempDir(), "cp")
	writeSample(t, path, sampleCheckpoint())
	eachChainDamage(t, path, func(what string) {
		if _, err := readSealedSnap(path); !errors.Is(err, ErrCheckpointCorrupt) {
			t.Fatalf("%s: got %v, want ErrCheckpointCorrupt", what, err)
		}
	})
	if _, err := readSealedSnap(path); err != nil {
		t.Fatalf("restored checkpoint: %v", err)
	}
}

// TestCheckpointTruncationDetected: any file of the chain cut short is
// refused as corrupt.
func TestCheckpointTruncationDetected(t *testing.T) {
	path := filepath.Join(t.TempDir(), "cp")
	writeSample(t, path, sampleCheckpoint())
	for _, f := range chainFiles(t, path) {
		data, err := os.ReadFile(f)
		if err != nil {
			t.Fatal(err)
		}
		for _, n := range []int{0, 1, len(chainFormat.Magic), len(data) / 2, len(data) - 1} {
			if err := os.WriteFile(f, data[:n], 0o644); err != nil {
				t.Fatal(err)
			}
			if _, err := readSealedSnap(path); !errors.Is(err, ErrCheckpointCorrupt) {
				t.Fatalf("%s truncated to %d bytes: got %v, want ErrCheckpointCorrupt", filepath.Base(f), n, err)
			}
		}
		if err := os.WriteFile(f, data, 0o644); err != nil {
			t.Fatal(err)
		}
	}
}

func TestCheckpointVersionMismatch(t *testing.T) {
	payload := []byte(chainFormat.Magic)
	payload = binary.AppendUvarint(payload, 99)
	h := fnv.New64a()
	h.Write(payload)
	payload = binary.BigEndian.AppendUint64(payload, h.Sum64())
	path := filepath.Join(t.TempDir(), "cp")
	if err := os.WriteFile(path, payload, 0o644); err != nil {
		t.Fatal(err)
	}
	if _, err := readSealedSnap(path); !errors.Is(err, ErrCheckpointCorrupt) {
		t.Fatalf("version 99: got %v, want ErrCheckpointCorrupt", err)
	}
}

// TestCheckpointLegacyV1Load hand-builds well-formed files in the
// retired formats — version 1 (per-entry claim key and depth), version 2
// (no flags word), version 3 (no fingerprint) and the single-file
// version 5 (whole arenas and the live tier in one file) — and proves the
// reader and the engine's resume both refuse them as corrupt, leaving the
// file in place: their readers are gone, so such files no longer load.
func TestCheckpointLegacyV1Load(t *testing.T) {
	for _, version := range []uint64{1, 2, 3, 5} {
		payload := legacyV5Bytes(sampleCheckpoint())
		if version < 5 {
			payload = legacyBytes(version, sampleLegacy())
		}
		path := filepath.Join(t.TempDir(), "cp")
		if err := os.WriteFile(path, payload, 0o644); err != nil {
			t.Fatal(err)
		}
		_, err := readSealedSnap(path)
		if !errors.Is(err, ErrCheckpointCorrupt) || !strings.Contains(err.Error(), fmt.Sprintf("unsupported version %d", version)) {
			t.Fatalf("v%d read: got %v, want ErrCheckpointCorrupt (unsupported version)", version, err)
		}
		inv := func(from, to State) bool { return true }
		if _, err := CheckTransitionInvariant(coloredModel{max: 5}, inv, Options{ResumePath: path}); !errors.Is(err, ErrCheckpointCorrupt) {
			t.Fatalf("v%d resume: got %v, want ErrCheckpointCorrupt", version, err)
		}
		if after, err := os.ReadFile(path); err != nil || string(after) != string(payload) {
			t.Fatalf("v%d: refused file was modified or removed (%v)", version, err)
		}
	}
}

// TestCheckpointMissingFile: a missing manifest is nothing to resume,
// while a manifest whose listed file is missing is refused with an error
// wrapping os.ErrNotExist, in-process and in a worker's store alike.
func TestCheckpointMissingFile(t *testing.T) {
	absent := filepath.Join(t.TempDir(), "absent")
	if s5, err := readSealedSnap(absent); s5 != nil || err != nil {
		t.Fatalf("engine read: got (%v, %v), want nothing to resume", s5, err)
	}
	path := filepath.Join(t.TempDir(), "cp")
	writeSample(t, path, sampleCheckpoint())
	files := chainFiles(t, path)
	for _, f := range files[1:] {
		data, err := os.ReadFile(f)
		if err != nil {
			t.Fatal(err)
		}
		if err := os.Remove(f); err != nil {
			t.Fatal(err)
		}
		c, err := OpenChain(path)
		if err != nil {
			t.Fatal(err)
		}
		if _, err := NewShardStore(0, allShards).Resume(c); !errors.Is(err, os.ErrNotExist) {
			t.Fatalf("worker restore without %s: got %v, want os.ErrNotExist", filepath.Base(f), err)
		}
		if _, err := readSealedSnap(path); !errors.Is(err, os.ErrNotExist) {
			t.Fatalf("engine read without %s: got %v, want os.ErrNotExist", filepath.Base(f), err)
		}
		if err := os.WriteFile(f, data, 0o644); err != nil {
			t.Fatal(err)
		}
	}
}

func TestCheckpointAtomicNoTempLeft(t *testing.T) {
	dir := t.TempDir()
	path := filepath.Join(dir, "cp")
	writeSample(t, path, sampleCheckpoint())
	entries, err := os.ReadDir(dir)
	if err != nil {
		t.Fatal(err)
	}
	var names []string
	for _, e := range entries {
		names = append(names, e.Name())
	}
	if want := []string{"cp", "cp.l7.front", "cp.l7.seg"}; !slices.Equal(names, want) {
		t.Fatalf("directory holds %v, want only the checkpoint's files %v", names, want)
	}
}

// TestCheckpointSegmentsAreIncremental: an engine run that checkpoints
// every level writes one segment per level holding exactly the states
// sealed since the previous checkpoint — the frontier of the level
// before — and the segments' arena bytes add up, shard by shard, to the
// arenas of a run that checkpoints once, at the same cut.
func TestCheckpointSegmentsAreIncremental(t *testing.T) {
	m := diamondModel{k: 20}
	const cut = 12
	every := filepath.Join(t.TempDir(), "cp")
	frontiers := map[int]int{0: 1}
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	_, err := CheckTransitionInvariant(m, func(from, to State) bool { return true }, Options{
		Context: ctx, CheckpointPath: every, CheckpointEvery: 1,
		Progress: func(p Progress) {
			frontiers[p.Depth] = p.Frontier
			if p.Depth == cut {
				cancel()
			}
		},
	})
	if !errors.Is(err, ErrInterrupted) {
		t.Fatalf("got %v, want ErrInterrupted", err)
	}
	once := filepath.Join(t.TempDir(), "cp")
	interruptSealed(t, 20, cut, once)

	files := chainFiles(t, every)
	if len(files) != cut+2 {
		t.Fatalf("chain of %d files, want the manifest, %d segments and a frontier", len(files), cut)
	}
	var sum [numShards]int
	for d, seg := range files[1 : cut+1] {
		if want := fmt.Sprintf("cp.l%d.seg", d+1); filepath.Base(seg) != want {
			t.Fatalf("segment %d is %s, want %s", d, filepath.Base(seg), want)
		}
		counts, blobs := sections(t, seg)
		n := uint64(0)
		for s := range counts {
			n += counts[s]
			sum[s] += blobs[s]
		}
		if n != uint64(frontiers[d]) {
			t.Fatalf("segment of depth %d holds %d states, want the %d sealed since the last checkpoint", d+1, n, frontiers[d])
		}
	}
	if _, blobs := sections(t, chainFiles(t, once)[1]); sum != blobs {
		t.Fatalf("segments' arena bytes %v, one checkpoint's %v", sum, blobs)
	}
	if got, want := readEngineSnap(t, every), readEngineSnap(t, once); !reflect.DeepEqual(got, want) {
		t.Fatal("the chain of segments loads to a different checkpoint than one segment does")
	}
}

// TestCheckpointFailedWriteReachesBack: a periodic checkpoint that cannot
// be written is dropped — surfaced in Stats, leaving no file — the
// manifest before it stays valid, and the next checkpoint's segment
// reaches back over the dropped levels, so the chain at the cut loads to
// the checkpoint of a run that wrote once.
func TestCheckpointFailedWriteReachesBack(t *testing.T) {
	const cut = 8
	dir := t.TempDir()
	path := filepath.Join(dir, "cp")
	failing := false
	chainFormat.Wrap = func(w io.Writer) io.Writer {
		if failing {
			return &tornWriter{w: io.Discard}
		}
		return w
	}
	defer func() { chainFormat.Wrap = nil }()
	frontiers := map[int]int{}
	var st Stats
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	_, err := CheckTransitionInvariant(diamondModel{k: 20}, func(from, to State) bool { return true }, Options{
		Context: ctx, CheckpointPath: path, CheckpointEvery: 1, Stats: func(s Stats) { st = s },
		Progress: func(p Progress) {
			frontiers[p.Depth] = p.Frontier
			failing = p.Depth == 3 || p.Depth == 4
			if p.Depth == cut {
				cancel()
			}
		},
	})
	chainFormat.Wrap = nil
	if !errors.Is(err, ErrInterrupted) || !strings.Contains(st.CheckpointWriteErr, errTorn.Error()) {
		t.Fatalf("got %v, write error %q; want ErrInterrupted and the dropped write surfaced", err, st.CheckpointWriteErr)
	}
	files := chainFiles(t, path)
	var names []string
	for _, f := range files {
		names = append(names, filepath.Base(f))
	}
	if want := []string{"cp", "cp.l1.seg", "cp.l2.seg", "cp.l5.seg", "cp.l6.seg", "cp.l7.seg", "cp.l8.seg", "cp.l8.front"}; !slices.Equal(names, want) {
		t.Fatalf("chain %v, want %v", names, want)
	}
	if left := dirNames(t, dir); len(left) != len(files) {
		t.Fatalf("directory holds %v, more than the chain", left)
	}
	counts, _ := sections(t, files[3])
	n := uint64(0)
	for _, c := range counts {
		n += c
	}
	if want := frontiers[2] + frontiers[3] + frontiers[4]; n != uint64(want) {
		t.Fatalf("segment after the dropped writes holds %d states, want the %d sealed since the last write", n, want)
	}
	once := filepath.Join(t.TempDir(), "cp")
	interruptSealed(t, 20, cut, once)
	if !reflect.DeepEqual(readEngineSnap(t, path), readEngineSnap(t, once)) {
		t.Fatal("the chain over the dropped writes loads to a different checkpoint than one write does")
	}
}
