package mc

import (
	"encoding/binary"
	"errors"
	"hash/fnv"
	"os"
	"path/filepath"
	"reflect"
	"strings"
	"testing"
)

func sampleCheckpoint() *Checkpoint {
	return &Checkpoint{
		Depth:       7,
		ResultDepth: 6,
		Transitions: 1234,
		Fingerprint: 0xdeadbeefcafef00d,
		Frontier:    []State{"b", "", "c\x00d"},
		Visited: []VisitedEntry{
			{State: "", Parent: "", HasParent: false},
			{State: "b", Parent: "", HasParent: true},
			{State: "c\x00d", Parent: "b", HasParent: true},
		},
	}
}

func TestCheckpointCodecRoundTrip(t *testing.T) {
	path := filepath.Join(t.TempDir(), "cp")
	want := sampleCheckpoint()
	if err := WriteCheckpoint(path, want); err != nil {
		t.Fatalf("write: %v", err)
	}
	got, err := ReadCheckpoint(path)
	if err != nil {
		t.Fatalf("read: %v", err)
	}
	if !reflect.DeepEqual(got, want) {
		t.Fatalf("round trip mismatch:\n got %+v\nwant %+v", got, want)
	}
}

func TestCheckpointCorruptionDetected(t *testing.T) {
	path := filepath.Join(t.TempDir(), "cp")
	if err := WriteCheckpoint(path, sampleCheckpoint()); err != nil {
		t.Fatalf("write: %v", err)
	}
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
		if _, err := ReadCheckpoint(path); !errors.Is(err, ErrCheckpointCorrupt) {
			t.Fatalf("flip at byte %d: got %v, want ErrCheckpointCorrupt", i, err)
		}
	}
}

func TestCheckpointTruncationDetected(t *testing.T) {
	path := filepath.Join(t.TempDir(), "cp")
	if err := WriteCheckpoint(path, sampleCheckpoint()); err != nil {
		t.Fatalf("write: %v", err)
	}
	data, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
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
	if _, err := ReadCheckpoint(path); !errors.Is(err, ErrCheckpointCorrupt) {
		t.Fatalf("version 99: got %v, want ErrCheckpointCorrupt", err)
	}
}

// TestCheckpointLegacyV1Load hand-builds well-formed files in the
// retired formats — version 1 (per-entry claim key and depth), version 2
// (no flags word) and version 3 (no fingerprint) — and proves the reader
// and the engine's resume both refuse them as corrupt, leaving the file
// in place: the v1–v3 readers are gone, so such files no longer load.
func TestCheckpointLegacyV1Load(t *testing.T) {
	cp := sampleCheckpoint()
	for version := uint64(1); version <= 3; version++ {
		payload := []byte(checkpointMagic)
		payload = binary.AppendUvarint(payload, version)
		payload = binary.AppendUvarint(payload, uint64(uint32(cp.Depth)))
		payload = binary.AppendUvarint(payload, uint64(cp.ResultDepth))
		payload = binary.AppendUvarint(payload, uint64(cp.Transitions))
		if version == 3 {
			payload = binary.AppendUvarint(payload, 0) // search flags
		}
		str := func(s State) {
			payload = binary.AppendUvarint(payload, uint64(len(s)))
			payload = append(payload, s...)
		}
		payload = binary.AppendUvarint(payload, uint64(len(cp.Frontier)))
		for _, s := range cp.Frontier {
			str(s)
		}
		payload = binary.AppendUvarint(payload, uint64(len(cp.Visited)))
		for i, e := range cp.Visited {
			str(e.State)
			str(e.Parent)
			if version == 1 {
				payload = binary.AppendUvarint(payload, uint64(i*3)) // claim key
				payload = binary.AppendUvarint(payload, uint64(i))   // depth
			}
			flags := byte(0)
			if e.HasParent {
				flags = 1
			}
			payload = append(payload, flags)
		}
		h := fnv.New64a()
		h.Write(payload)
		payload = binary.BigEndian.AppendUint64(payload, h.Sum64())

		path := filepath.Join(t.TempDir(), "cp")
		if err := os.WriteFile(path, payload, 0o644); err != nil {
			t.Fatal(err)
		}
		_, err := ReadCheckpoint(path)
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

func TestCheckpointMissingFile(t *testing.T) {
	if _, err := ReadCheckpoint(filepath.Join(t.TempDir(), "absent")); !errors.Is(err, os.ErrNotExist) {
		t.Fatalf("got %v, want os.ErrNotExist", err)
	}
}

func TestCheckpointAtomicNoTempLeft(t *testing.T) {
	dir := t.TempDir()
	path := filepath.Join(dir, "cp")
	if err := WriteCheckpoint(path, sampleCheckpoint()); err != nil {
		t.Fatalf("write: %v", err)
	}
	entries, err := os.ReadDir(dir)
	if err != nil {
		t.Fatal(err)
	}
	if len(entries) != 1 || entries[0].Name() != "cp" {
		t.Fatalf("directory holds %d entries, want only the checkpoint", len(entries))
	}
}
