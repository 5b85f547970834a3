package mc

// Crash-consistency tests for the checkpoint writer: a write that dies at
// ANY byte offset must leave the previous snapshot readable and the
// directory free of temp litter, and a reader handed a damaged file must
// reject it without modifying it. The mid-write failures are injected
// through the chainFormat.Wrap seam, so every offset of the real
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
	s5 := &sealedSnap{ChainHeader: ChainHeader{Depth: 9, ResultDepth: 8, Transitions: 9876, Reduced: true,
		Fingerprint: 0x0123456789abcdef, NextBase: 4 << keySuccBits}}
	s5.shards[17] = snapArena("x", "xy", "xyz")
	s5.live = []liveSnapEntry{{enc: []byte("yy"), key: 3 << keySuccBits, pw: uint64(makeRef(17, 1)) + 1}}
	return s5
}

// dirNames lists dir.
func dirNames(t *testing.T, dir string) []string {
	t.Helper()
	entries, err := os.ReadDir(dir)
	if err != nil {
		t.Fatal(err)
	}
	names := make([]string, len(entries))
	for i, e := range entries {
		names[i] = e.Name()
	}
	return names
}

// TestCheckpointTornWriteKeepsOldSnapshot kills the serialization stream
// at every byte offset of an overwriting checkpoint — across its segment,
// frontier and manifest files — and checks, after each failed attempt,
// that (a) the write reported the failure, (b) the pre-existing
// checkpoint still reads back byte-identical, and (c) no temp file nor
// any file of the failed attempt is left behind. A final unwrapped write
// must then succeed — the torn attempts may not have wedged the path.
func TestCheckpointTornWriteKeepsOldSnapshot(t *testing.T) {
	dir := t.TempDir()
	path := filepath.Join(dir, "cp")
	old := sampleCheckpoint()
	if err := writeSealedSnap(path, old); err != nil {
		t.Fatalf("seed write: %v", err)
	}
	seed := chainBytes(t, path)
	seedNames := dirNames(t, dir)

	// Measure the replacement checkpoint's full stream length with a
	// counting pass in a scratch directory.
	repl := altCheckpoint()
	scratch := filepath.Join(t.TempDir(), "cp")
	if err := writeSealedSnap(scratch, repl); err != nil {
		t.Fatalf("scratch write: %v", err)
	}
	total := len(chainBytes(t, scratch))

	oldBack := readBack(t, old)
	defer func() { chainFormat.Wrap = nil }()
	for cut := 0; cut < total; cut++ {
		budget := cut
		chainFormat.Wrap = func(w io.Writer) io.Writer {
			tw := &tornWriter{w: w, limit: budget}
			return writerFunc(func(p []byte) (int, error) {
				n, err := tw.Write(p)
				budget -= n
				return n, err
			})
		}
		if err := writeSealedSnap(path, repl); !errors.Is(err, errTorn) {
			t.Fatalf("cut at %d: got %v, want errTorn", cut, err)
		}
		got, err := readSealedSnap(path)
		if err != nil {
			t.Fatalf("cut at %d: old snapshot unreadable: %v", cut, err)
		}
		if !reflect.DeepEqual(got, oldBack) {
			t.Fatalf("cut at %d: old snapshot mutated", cut)
		}
		if string(chainBytes(t, path)) != string(seed) {
			t.Fatalf("cut at %d: snapshot bytes changed", cut)
		}
		if names := dirNames(t, dir); !reflect.DeepEqual(names, seedNames) {
			t.Fatalf("cut at %d: directory holds %v, want %v", cut, names, seedNames)
		}
	}

	chainFormat.Wrap = nil
	if err := writeSealedSnap(path, repl); err != nil {
		t.Fatalf("final write: %v", err)
	}
	got, err := readSealedSnap(path)
	if err != nil {
		t.Fatalf("final read: %v", err)
	}
	if !reflect.DeepEqual(got, readBack(t, repl)) {
		t.Fatalf("final snapshot mismatch:\n got %+v\nwant %+v", got, repl)
	}
}

// writerFunc adapts a function to io.Writer.
type writerFunc func([]byte) (int, error)

func (f writerFunc) Write(p []byte) (int, error) { return f(p) }

// readBack is s5 as a one-barrier chain of it loads back: the sections
// of a fresh chain start at entry 0.
func readBack(t *testing.T, s5 *sealedSnap) *sealedSnap {
	t.Helper()
	path := filepath.Join(t.TempDir(), "cp")
	writeSample(t, path, s5)
	return readEngineSnap(t, path)
}

// enospcWriter fails every write with ENOSPC — a whole checkpoint write
// attempt dies transiently.
type enospcWriter struct{}

func (enospcWriter) Write(p []byte) (int, error) { return 0, syscall.ENOSPC }

// TestWriteCheckpointRetryTransient proves the bounded-backoff wrapper
// the engine writes its checkpoints through rides out transient
// failures: two ENOSPC attempts, then success, with the retry count
// surfaced to the caller and the chain byte-identical to the one the
// search wrote.
func TestWriteCheckpointRetryTransient(t *testing.T) {
	search := filepath.Join(t.TempDir(), "cp")
	interruptSealed(t, 14, 5, search)
	s5 := readEngineSnap(t, search)

	path := filepath.Join(t.TempDir(), "cp")
	fails := 2
	chainFormat.Wrap = func(w io.Writer) io.Writer {
		if fails > 0 {
			fails--
			return enospcWriter{}
		}
		return w
	}
	defer func() { chainFormat.Wrap = nil }()

	c, err := ContinueChain(path, nil)
	if err != nil {
		t.Fatal(err)
	}
	retries, err := c.writeBarrierRetry(s5)
	if err != nil {
		t.Fatalf("write: %v", err)
	}
	if retries != 2 {
		t.Fatalf("retries = %d, want 2", retries)
	}
	if string(chainBytes(t, path)) != string(chainBytes(t, search)) {
		t.Fatal("post-retry checkpoint differs from the one the search wrote")
	}
}

// TestWriteCheckpointRetryPermanent proves a non-transient failure is NOT
// retried: one attempt, the error surfaces as-is, and no file appears.
func TestWriteCheckpointRetryPermanent(t *testing.T) {
	search := filepath.Join(t.TempDir(), "cp")
	interruptSealed(t, 14, 5, search)
	s5 := readEngineSnap(t, search)

	dir := t.TempDir()
	calls := 0
	chainFormat.Wrap = func(w io.Writer) io.Writer {
		calls++
		return &tornWriter{w: io.Discard, limit: 0}
	}
	defer func() { chainFormat.Wrap = nil }()

	c, err := ContinueChain(filepath.Join(dir, "cp"), nil)
	if err != nil {
		t.Fatal(err)
	}
	retries, err := c.writeBarrierRetry(s5)
	if !errors.Is(err, errTorn) {
		t.Fatalf("got %v, want errTorn", err)
	}
	if retries != 0 || calls != 1 {
		t.Fatalf("retries=%d calls=%d, want a single undecorated attempt", retries, calls)
	}
	if names := dirNames(t, dir); len(names) != 0 {
		t.Fatalf("failed write left files behind: %v", names)
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

// fuzzChain is a seed checkpoint of FuzzResumeCheckpoint: the manifest
// at path and the files it lists, all read into files (manifest first).
type fuzzChain struct {
	names []string // base names, manifest first
	files [][]byte
}

func readFuzzChain(t testing.TB, path string) fuzzChain {
	t.Helper()
	var fc fuzzChain
	for _, f := range chainFiles(t, path) {
		fc.names = append(fc.names, filepath.Base(f))
		fc.files = append(fc.files, readAll(t, f)[0])
	}
	return fc
}

// FuzzResumeCheckpoint throws damaged checkpoints at the one restore
// call. A fuzz input picks a seed chain, replaces one of its files —
// the manifest, or a listed segment or frontier file — with the fuzzed
// payload, and restores the chain as each owner of a 1- to 4-way shard
// split. The harness appends the FNV-64a trailer and, for a listed file,
// rewrites the manifest with the file's new checksum, so mutations reach
// the parsers, the chain-order checks and the arena sweep instead of
// dying at a checksum. The contract: never panic; refuse only with
// ErrCheckpointCorrupt, ErrStateLimit or os.ErrNotExist; leave every file
// byte-intact; and a restored store finds every frontier state by its
// encoding.
//
// Seeds: engine chains of interrupted diamond (plain) and colored
// (reduced) searches, cut at several depths and resumed and cut again;
// multi-writer chains of 2- and 3-store fleets; each file of each in
// full, halved and one byte short; and the fleet's manifests with a
// missing, repeated, reordered, dropped or foreign segment, or a foreign
// frontier file.
func FuzzResumeCheckpoint(f *testing.F) {
	var chains []fuzzChain
	seed := func(fc fuzzChain) {
		ci := len(chains)
		chains = append(chains, fc)
		for fi, data := range fc.files {
			payload := data[:len(data)-8]
			for _, p := range [][]byte{payload, payload[:len(payload)/2], payload[:len(payload)-1]} {
				f.Add(uint8(ci), uint8(fi), uint8(ci+fi), p)
			}
		}
	}
	for _, sd := range []struct {
		m    Model
		cuts []int
	}{
		{diamondModel{k: 12}, []int{0, 2, 5}},
		{coloredModel{max: 60}, []int{1, 4}},
	} {
		for _, cut := range sd.cuts {
			path := filepath.Join(f.TempDir(), "cp")
			interruptSearch(f, sd.m, cut, path, Options{})
			seed(readFuzzChain(f, path))
		}
		path := filepath.Join(f.TempDir(), "cp")
		interruptSearch(f, sd.m, 2, path, Options{})
		interruptSearch(f, sd.m, 2, path, Options{ResumePath: path})
		seed(readFuzzChain(f, path))
	}
	for _, n := range []int{2, 3} {
		for _, m := range []Model{diamondModel{k: 6}, coloredModel{max: 12}} {
			fl := newFleet(f, m, n, f.TempDir())
			fl.run(f, 5)
			seed(readFuzzChain(f, fl.chain.path))
			if n == 2 && m == (diamondModel{k: 6}) {
				// The damaged manifests replace the chain's own, next to
				// the foreign file one of them lists.
				g := newFleet(f, m, 3, f.TempDir())
				g.run(f, 5)
				damaged := fl.damagedManifests(f, g)
				fc := readFuzzChain(f, fl.chain.path)
				for _, name := range []string{"alien.seg", "alien.front"} {
					fc.names = append(fc.names, name)
					fc.files = append(fc.files, readAll(f, filepath.Join(fl.dir, name))[0])
				}
				for _, name := range []string{"missing", "repeated", "reordered", "dropped", "foreign-segment", "foreign-frontier"} {
					data := readAll(f, damaged[name].path)[0]
					f.Add(uint8(len(chains)), uint8(0), uint8(len(chains)), data[:len(data)-8])
				}
				chains = append(chains, fc)
			}
		}
	}
	f.Add(uint8(0), uint8(0), uint8(0), []byte(chainFormat.Magic))

	f.Fuzz(func(t *testing.T, ci, fi, owners uint8, payload []byte) {
		fc := chains[int(ci)%len(chains)]
		fi %= uint8(len(fc.files))
		dir := t.TempDir()
		for i, name := range fc.names {
			if err := os.WriteFile(filepath.Join(dir, name), fc.files[i], 0o644); err != nil {
				t.Fatal(err)
			}
		}
		h := fnv.New64a()
		h.Write(payload)
		if err := os.WriteFile(filepath.Join(dir, fc.names[fi]), binary.BigEndian.AppendUint64(append([]byte(nil), payload...), h.Sum64()), 0o644); err != nil {
			t.Fatal(err)
		}
		manifest := filepath.Join(dir, fc.names[0])
		if fi > 0 {
			// Re-list the same files, so the manifest carries the new sum.
			c, err := OpenChain(manifest)
			if err != nil {
				t.Fatal(err)
			}
			var segs, fronts []string
			for _, sg := range c.segs {
				segs = append(segs, filepath.Join(dir, sg.name))
			}
			for _, fr := range c.fronts {
				fronts = append(fronts, filepath.Join(dir, fr.name))
			}
			if err := (&Chain{path: manifest}).Commit(c.ChainHeader, segs, fronts); err != nil {
				t.Fatal(err)
			}
		}
		before := dirBytes(t, dir)
		n := 1 + int(owners)%4
		for i := 0; i < n; i++ {
			c, err := OpenChain(manifest)
			if err == nil {
				s := NewShardStore(1<<16, ownedBy(i, n))
				var frontier []uint32
				if frontier, err = s.Resume(c); err == nil {
					for _, ref := range frontier {
						if _, _, found := s.ParentOf(s.BytesOf(ref)); !found {
							t.Fatalf("frontier state %q not found by its encoding", s.BytesOf(ref))
						}
					}
				}
			}
			if err != nil && !errors.Is(err, ErrCheckpointCorrupt) && !errors.Is(err, ErrStateLimit) &&
				!errors.Is(err, os.ErrNotExist) {
				t.Fatalf("restore refused with %v, want ErrCheckpointCorrupt, ErrStateLimit or os.ErrNotExist", err)
			}
		}
		if !reflect.DeepEqual(dirBytes(t, dir), before) {
			t.Fatal("the restore changed a file")
		}
	})
}
