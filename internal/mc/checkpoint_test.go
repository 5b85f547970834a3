package mc

import (
	"encoding/binary"
	"errors"
	"fmt"
	"hash/fnv"
	"os"
	"path/filepath"
	"reflect"
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
	payload := []byte(checkpointMagic)
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

// sampleCheckpoint is a small version-5 file's content: two arenas, one
// past its first restart interval, and a live tier that includes the
// empty encoding.
func sampleCheckpoint() *sealedSnap {
	s5 := &sealedSnap{depth: 7, resultDepth: 6, transitions: 1234,
		fingerprint: 0xdeadbeefcafef00d, nextBase: 9 << keySuccBits}
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
		want.reduced = reduced
		writeSample(t, path, want)
		got := readEngineSnap(t, path)
		if !reflect.DeepEqual(got, want) {
			t.Fatalf("round trip mismatch:\n got %+v\nwant %+v", got, want)
		}
	}
}

func TestCheckpointCorruptionDetected(t *testing.T) {
	path := filepath.Join(t.TempDir(), "cp")
	writeSample(t, path, sampleCheckpoint())
	data, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	for i := range data {
		bad := append([]byte(nil), data...)
		bad[i] ^= 0x40
		if err := os.WriteFile(path, bad, 0o644); err != nil {
			t.Fatal(err)
		}
		if _, err := readSealedSnap(path); !errors.Is(err, ErrCheckpointCorrupt) {
			t.Fatalf("flip at byte %d: got %v, want ErrCheckpointCorrupt", i, err)
		}
	}
}

func TestCheckpointTruncationDetected(t *testing.T) {
	path := filepath.Join(t.TempDir(), "cp")
	writeSample(t, path, sampleCheckpoint())
	data, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	for _, n := range []int{0, 1, len(checkpointMagic), len(data) / 2, len(data) - 1} {
		if err := os.WriteFile(path, data[:n], 0o644); err != nil {
			t.Fatal(err)
		}
		if _, err := readSealedSnap(path); !errors.Is(err, ErrCheckpointCorrupt) {
			t.Fatalf("truncation to %d bytes: got %v, want ErrCheckpointCorrupt", n, err)
		}
	}
}

func TestCheckpointVersionMismatch(t *testing.T) {
	payload := []byte(checkpointMagic)
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
// (no flags word) and version 3 (no fingerprint) — and proves the reader
// and the engine's resume both refuse them as corrupt, leaving the file
// in place: the v1–v3 readers are gone, so such files no longer load.
func TestCheckpointLegacyV1Load(t *testing.T) {
	for version := uint64(1); version <= 3; version++ {
		payload := legacyBytes(version, sampleLegacy())
		path := filepath.Join(t.TempDir(), "cp")
		if err := os.WriteFile(path, payload, 0o644); err != nil {
			t.Fatal(err)
		}
		_, err := readSealedSnap(path)
		if !errors.Is(err, ErrCheckpointCorrupt) || !strings.Contains(err.Error(), "unsupported version") {
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

// TestCheckpointMissingFile: a missing engine checkpoint is nothing to
// resume, while a missing barrier snapshot in a worker's restore chain
// is an error wrapping os.ErrNotExist.
func TestCheckpointMissingFile(t *testing.T) {
	absent := filepath.Join(t.TempDir(), "absent")
	if s5, err := readSealedSnap(absent); s5 != nil || err != nil {
		t.Fatalf("engine read: got (%v, %v), want nothing to resume", s5, err)
	}
	if _, err := NewShardStore(0, allShards).Restore([]string{absent}); !errors.Is(err, os.ErrNotExist) {
		t.Fatalf("worker restore: got %v, want os.ErrNotExist", err)
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
	if len(entries) != 1 || entries[0].Name() != "cp" {
		t.Fatalf("directory holds %d entries, want only the checkpoint", len(entries))
	}
}
