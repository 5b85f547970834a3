package mc

// Crash-consistency tests for the checkpoint writer: a write that dies at
// ANY byte offset must leave the previous snapshot readable and the
// directory free of temp litter, and a reader handed a damaged file must
// reject it without modifying it. The mid-write failures are injected
// through the checkpointWrapWriter seam, so every offset of the real
// serialization stream is exercised without filesystem tricks.

import (
	"errors"
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
func altCheckpoint() *Checkpoint {
	return &Checkpoint{
		Depth:       9,
		ResultDepth: 8,
		Transitions: 9876,
		Fingerprint: 0x0123456789abcdef,
		Frontier:    []State{"x", "yy"},
		Visited: []VisitedEntry{
			{State: "x", Parent: "", HasParent: false},
			{State: "yy", Parent: "x", HasParent: true},
		},
	}
}

// TestCheckpointTornWriteKeepsOldSnapshot kills the serialization stream
// at every byte offset of an overwriting snapshot and checks, after each
// failed attempt, that (a) WriteCheckpoint reported the failure, (b) the
// pre-existing snapshot still reads back byte-identical, and (c) no temp
// file is left behind. A final unwrapped write must then succeed — the
// torn attempts may not have wedged the path.
func TestCheckpointTornWriteKeepsOldSnapshot(t *testing.T) {
	dir := t.TempDir()
	path := filepath.Join(dir, "cp")
	old := sampleCheckpoint()
	if err := WriteCheckpoint(path, old); err != nil {
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
	if err := WriteCheckpoint(scratch, repl); err != nil {
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
		if err := WriteCheckpoint(path, repl); !errors.Is(err, errTorn) {
			t.Fatalf("cut at %d: got %v, want errTorn", cut, err)
		}
		got, err := ReadCheckpoint(path)
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
	if err := WriteCheckpoint(path, repl); err != nil {
		t.Fatalf("final write: %v", err)
	}
	got, err := ReadCheckpoint(path)
	if err != nil {
		t.Fatalf("final read: %v", err)
	}
	if !reflect.DeepEqual(got, repl) {
		t.Fatalf("final snapshot mismatch:\n got %+v\nwant %+v", got, repl)
	}
}

// enospcWriter fails every write with ENOSPC — a whole WriteCheckpoint
// attempt dies transiently.
type enospcWriter struct{}

func (enospcWriter) Write(p []byte) (int, error) { return 0, syscall.ENOSPC }

// TestWriteCheckpointRetryTransient proves the bounded-backoff wrapper
// rides out transient failures: two ENOSPC attempts, then success, with
// the retry count surfaced to the caller.
func TestWriteCheckpointRetryTransient(t *testing.T) {
	path := filepath.Join(t.TempDir(), "cp")
	fails := 2
	checkpointWrapWriter = func(w io.Writer) io.Writer {
		if fails > 0 {
			fails--
			return enospcWriter{}
		}
		return w
	}
	defer func() { checkpointWrapWriter = nil }()

	want := sampleCheckpoint()
	retries, err := WriteCheckpointRetry(path, want)
	if err != nil {
		t.Fatalf("write: %v", err)
	}
	if retries != 2 {
		t.Fatalf("retries = %d, want 2", retries)
	}
	got, err := ReadCheckpoint(path)
	if err != nil {
		t.Fatalf("read: %v", err)
	}
	if !reflect.DeepEqual(got, want) {
		t.Fatalf("post-retry snapshot mismatch:\n got %+v\nwant %+v", got, want)
	}
}

// TestWriteCheckpointRetryPermanent proves a non-transient failure is NOT
// retried: one attempt, the error surfaces as-is.
func TestWriteCheckpointRetryPermanent(t *testing.T) {
	path := filepath.Join(t.TempDir(), "cp")
	calls := 0
	checkpointWrapWriter = func(w io.Writer) io.Writer {
		calls++
		return &tornWriter{w: io.Discard, limit: 0}
	}
	defer func() { checkpointWrapWriter = nil }()

	retries, err := WriteCheckpointRetry(path, sampleCheckpoint())
	if !errors.Is(err, errTorn) {
		t.Fatalf("got %v, want errTorn", err)
	}
	if retries != 0 || calls != 1 {
		t.Fatalf("retries=%d calls=%d, want a single undecorated attempt", retries, calls)
	}
}

// TestReadCheckpointLeavesCorruptFileIntact pins down that the reader is
// strictly read-only: rejecting a damaged snapshot must not modify it,
// so a post-mortem can inspect exactly what the crash left behind.
func TestReadCheckpointLeavesCorruptFileIntact(t *testing.T) {
	path := filepath.Join(t.TempDir(), "cp")
	if err := WriteCheckpoint(path, sampleCheckpoint()); err != nil {
		t.Fatalf("write: %v", err)
	}
	data, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	bad := append([]byte(nil), data...)
	bad[len(bad)/2] ^= 0xff
	if err := os.WriteFile(path, bad, 0o644); err != nil {
		t.Fatal(err)
	}
	if _, err := ReadCheckpoint(path); !errors.Is(err, ErrCheckpointCorrupt) {
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

// FuzzReadCheckpoint throws arbitrary bytes at the reader. The contract
// under fuzzing: never panic, never modify the input file, and any bytes
// it does accept must round-trip — re-serializing the accepted snapshot
// and re-reading it yields the same value.
func FuzzReadCheckpoint(f *testing.F) {
	seedDir := f.TempDir()
	seedPath := filepath.Join(seedDir, "seed")
	if err := WriteCheckpoint(seedPath, sampleCheckpoint()); err != nil {
		f.Fatal(err)
	}
	valid, err := os.ReadFile(seedPath)
	if err != nil {
		f.Fatal(err)
	}
	f.Add(valid)
	f.Add(valid[:len(valid)/2])
	f.Add([]byte{})
	f.Add([]byte(checkpointMagic))
	mut := append([]byte(nil), valid...)
	mut[len(checkpointMagic)] ^= 0x01 // version byte
	f.Add(mut)

	f.Fuzz(func(t *testing.T, data []byte) {
		path := filepath.Join(t.TempDir(), "cp")
		if err := os.WriteFile(path, data, 0o644); err != nil {
			t.Fatal(err)
		}
		cp, err := ReadCheckpoint(path)
		after, rerr := os.ReadFile(path)
		if rerr != nil {
			t.Fatal(rerr)
		}
		if string(after) != string(data) {
			t.Fatal("reader modified the file")
		}
		if err != nil {
			return
		}
		back := filepath.Join(t.TempDir(), "back")
		if err := WriteCheckpoint(back, cp); err != nil {
			t.Fatalf("re-serialize accepted snapshot: %v", err)
		}
		cp2, err := ReadCheckpoint(back)
		if err != nil {
			t.Fatalf("re-read re-serialized snapshot: %v", err)
		}
		if !reflect.DeepEqual(cp, cp2) {
			t.Fatalf("accepted snapshot does not round-trip:\n got %+v\nthen %+v", cp, cp2)
		}
	})
}
