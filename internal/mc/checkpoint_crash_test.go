package mc

// Crash-consistency tests for the checkpoint writer: a write that dies at
// ANY byte offset must leave the previous snapshot readable and the
// directory free of temp litter, and a reader handed a damaged file must
// reject it without modifying it. The mid-write failures are injected
// through the checkpointWrapWriter seam, so every offset of the real
// serialization stream is exercised without filesystem tricks.

import (
	"encoding/binary"
	"errors"
	"hash/fnv"
	"io"
	"os"
	"path/filepath"
	"reflect"
	"syscall"
	"testing"
)

// tornWriter passes bytes through until limit, then fails every write.
type tornWriter struct {
	w       io.Writer
	limit   int
	written int
}

var errTorn = errors.New("torn write injected")

func (tw *tornWriter) Write(p []byte) (int, error) {
	if tw.written >= tw.limit {
		return 0, errTorn
	}
	if room := tw.limit - tw.written; len(p) > room {
		n, _ := tw.w.Write(p[:room])
		tw.written += n
		return n, errTorn
	}
	n, err := tw.w.Write(p)
	tw.written += n
	return n, err
}

// altCheckpoint is a snapshot distinguishable from sampleCheckpoint in
// every field, so a partially applied overwrite cannot masquerade as
// either complete snapshot.
func altCheckpoint() *sealedSnap {
	s5 := &sealedSnap{depth: 9, resultDepth: 8, transitions: 9876, reduced: true,
		fingerprint: 0x0123456789abcdef, nextBase: 4 << keySuccBits}
	s5.shards[17] = snapArena("x", "xy", "xyz")
	s5.live = []liveSnapEntry{{enc: []byte("yy"), key: 3 << keySuccBits, pw: uint64(makeRef(17, 1)) + 1}}
	return s5
}

// TestCheckpointTornWriteKeepsOldSnapshot kills the serialization stream
// at every byte offset of an overwriting snapshot and checks, after each
// failed attempt, that (a) writeSealedSnap reported the failure, (b) the
// pre-existing snapshot still reads back byte-identical, and (c) no temp
// file is left behind. A final unwrapped write must then succeed — the
// torn attempts may not have wedged the path.
func TestCheckpointTornWriteKeepsOldSnapshot(t *testing.T) {
	dir := t.TempDir()
	path := filepath.Join(dir, "cp")
	old := sampleCheckpoint()
	if err := writeSealedSnap(path, old); err != nil {
		t.Fatalf("seed write: %v", err)
	}
	seed, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}

	// Measure the replacement snapshot's full stream length with a
	// counting pass against a scratch path.
	repl := altCheckpoint()
	scratch := filepath.Join(dir, "scratch")
	if err := writeSealedSnap(scratch, repl); err != nil {
		t.Fatalf("scratch write: %v", err)
	}
	scratchData, err := os.ReadFile(scratch)
	if err != nil {
		t.Fatal(err)
	}
	if err := os.Remove(scratch); err != nil {
		t.Fatal(err)
	}
	total := len(scratchData)

	defer func() { checkpointWrapWriter = nil }()
	for cut := 0; cut < total; cut++ {
		checkpointWrapWriter = func(w io.Writer) io.Writer {
			return &tornWriter{w: w, limit: cut}
		}
		if err := writeSealedSnap(path, repl); !errors.Is(err, errTorn) {
			t.Fatalf("cut at %d: got %v, want errTorn", cut, err)
		}
		got, err := readSealedSnap(path)
		if err != nil {
			t.Fatalf("cut at %d: old snapshot unreadable: %v", cut, err)
		}
		if !reflect.DeepEqual(got, old) {
			t.Fatalf("cut at %d: old snapshot mutated", cut)
		}
		raw, err := os.ReadFile(path)
		if err != nil {
			t.Fatal(err)
		}
		if string(raw) != string(seed) {
			t.Fatalf("cut at %d: snapshot bytes changed", cut)
		}
		entries, err := os.ReadDir(dir)
		if err != nil {
			t.Fatal(err)
		}
		if len(entries) != 1 || entries[0].Name() != "cp" {
			names := make([]string, len(entries))
			for i, e := range entries {
				names[i] = e.Name()
			}
			t.Fatalf("cut at %d: directory litter %v", cut, names)
		}
	}

	checkpointWrapWriter = nil
	if err := writeSealedSnap(path, repl); err != nil {
		t.Fatalf("final write: %v", err)
	}
	got, err := readSealedSnap(path)
	if err != nil {
		t.Fatalf("final read: %v", err)
	}
	if !reflect.DeepEqual(got, repl) {
		t.Fatalf("final snapshot mismatch:\n got %+v\nwant %+v", got, repl)
	}
}

// enospcWriter fails every write with ENOSPC — a whole checkpoint write
// attempt dies transiently.
type enospcWriter struct{}

func (enospcWriter) Write(p []byte) (int, error) { return 0, syscall.ENOSPC }

// TestWriteCheckpointRetryTransient proves the bounded-backoff wrapper
// the engine writes its checkpoints through rides out transient
// failures: two ENOSPC attempts, then success, with the retry count
// surfaced to the caller and the file byte-identical to the one the
// search wrote.
func TestWriteCheckpointRetryTransient(t *testing.T) {
	dir := t.TempDir()
	want := interruptSealed(t, 14, 5, filepath.Join(dir, "search"))
	s5 := readEngineSnap(t, filepath.Join(dir, "search"))

	path := filepath.Join(dir, "cp")
	fails := 2
	checkpointWrapWriter = func(w io.Writer) io.Writer {
		if fails > 0 {
			fails--
			return enospcWriter{}
		}
		return w
	}
	defer func() { checkpointWrapWriter = nil }()

	retries, err := writeSealedSnapRetry(path, s5)
	if err != nil {
		t.Fatalf("write: %v", err)
	}
	if retries != 2 {
		t.Fatalf("retries = %d, want 2", retries)
	}
	got, err := os.ReadFile(path)
	if err != nil {
		t.Fatalf("read: %v", err)
	}
	if string(got) != string(want) {
		t.Fatal("post-retry checkpoint differs from the one the search wrote")
	}
}

// TestWriteCheckpointRetryPermanent proves a non-transient failure is NOT
// retried: one attempt, the error surfaces as-is, and no file appears.
func TestWriteCheckpointRetryPermanent(t *testing.T) {
	dir := t.TempDir()
	interruptSealed(t, 14, 5, filepath.Join(dir, "search"))
	s5 := readEngineSnap(t, filepath.Join(dir, "search"))

	path := filepath.Join(dir, "cp")
	calls := 0
	checkpointWrapWriter = func(w io.Writer) io.Writer {
		calls++
		return &tornWriter{w: io.Discard, limit: 0}
	}
	defer func() { checkpointWrapWriter = nil }()

	retries, err := writeSealedSnapRetry(path, s5)
	if !errors.Is(err, errTorn) {
		t.Fatalf("got %v, want errTorn", err)
	}
	if retries != 0 || calls != 1 {
		t.Fatalf("retries=%d calls=%d, want a single undecorated attempt", retries, calls)
	}
	if _, err := os.Stat(path); !errors.Is(err, os.ErrNotExist) {
		t.Fatalf("failed write left a file behind (stat err=%v)", err)
	}
}

// TestReadCheckpointLeavesCorruptFileIntact pins down that the reader is
// strictly read-only: rejecting a damaged snapshot must not modify it,
// so a post-mortem can inspect exactly what the crash left behind.
func TestReadCheckpointLeavesCorruptFileIntact(t *testing.T) {
	path := filepath.Join(t.TempDir(), "cp")
	writeSample(t, path, sampleCheckpoint())
	data, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	bad := append([]byte(nil), data...)
	bad[len(bad)/2] ^= 0xff
	if err := os.WriteFile(path, bad, 0o644); err != nil {
		t.Fatal(err)
	}
	if _, err := readSealedSnap(path); !errors.Is(err, ErrCheckpointCorrupt) {
		t.Fatalf("got %v, want ErrCheckpointCorrupt", err)
	}
	after, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	if string(after) != string(bad) {
		t.Fatal("reader modified the corrupt file")
	}
}

// FuzzResumeCheckpoint throws arbitrary engine-checkpoint payloads at
// the resume path: envelope, parse, then restore into a fresh set. The
// fuzzed bytes are the checksummed payload — the harness appends the
// FNV-64a trailer — so mutations reach the parser and the arena decode
// instead of dying at the checksum. The contract:
// never panic, and refuse only with ErrCheckpointCorrupt or
// ErrStateLimit. Seeds are real checkpoints of interrupted diamond
// (plain) and colored (reduced) searches, cut at several depths, plus
// truncations.
func FuzzResumeCheckpoint(f *testing.F) {
	dir := f.TempDir()
	seeds := []struct {
		m    Model
		cuts []int
	}{
		{diamondModel{k: 12}, []int{0, 2, 5}},
		{coloredModel{max: 60}, []int{1, 4}},
	}
	for _, sd := range seeds {
		for _, cut := range sd.cuts {
			data := interruptSearch(f, sd.m, cut, filepath.Join(dir, "seed"), Options{})
			payload := data[:len(data)-8]
			f.Add(payload)
			f.Add(payload[:len(payload)/2])
			f.Add(payload[:len(payload)-1])
		}
	}
	f.Add([]byte(checkpointMagic))

	f.Fuzz(func(t *testing.T, payload []byte) {
		h := fnv.New64a()
		h.Write(payload)
		path := filepath.Join(t.TempDir(), "cp")
		if err := os.WriteFile(path, binary.BigEndian.AppendUint64(append([]byte(nil), payload...), h.Sum64()), 0o644); err != nil {
			t.Fatal(err)
		}
		s5, err := readSealedSnap(path)
		if err != nil {
			if !errors.Is(err, ErrCheckpointCorrupt) {
				t.Fatalf("parse refused with %v, want ErrCheckpointCorrupt", err)
			}
			return
		}
		err = restoreFresh(s5, 1<<16)
		if err != nil && !errors.Is(err, ErrCheckpointCorrupt) && !errors.Is(err, ErrStateLimit) {
			t.Fatalf("restore refused with %v, want ErrCheckpointCorrupt or ErrStateLimit", err)
		}
	})
}
