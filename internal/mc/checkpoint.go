package mc

// The checkpoint codec of the BFS engine and of the distributed layer's
// barrier snapshots: one format, version 5, for both.
//
// An engine checkpoint is taken at a level boundary — the only point
// where the whole search state is a frontier, a visited set, and two
// counters — so resuming replays the remaining levels exactly as the
// uninterrupted run would have executed them. Together with the
// min-claim-key determinism of the parallel engine this makes resumed
// results byte-identical to uninterrupted ones for any worker count.
//
// Every engine checkpoint is version 5 (sealedSnap): the search
// counters, a search-flags word (bit 0: the search ran reduced — its
// states are canonical representatives, so it must be resumed reduced),
// the model fingerprint — a digest of the model configuration the
// encodings were packed under, so a resume against a
// differently-parameterized model fails loudly instead of silently
// decoding garbage — the claim-key base the next level starts at, the
// per-shard sealed arenas, and the live tier (the frontier, with its
// claim keys and sealed parent refs). Only a sealing engine writes or
// resumes one: at a level boundary its arenas are exactly the sealed
// tier the file holds, so a capture copies nothing.
//
// A distributed worker writes the same layout at every level barrier
// (ShardStore.WriteSnapshot), holding only its own shards and, per
// shard, only the arena bytes appended since its last successful write:
// a segment. Its chain of barrier files concatenates, segment after
// segment, into the arenas an engine checkpoint at that barrier would
// hold for those shards, and is restored through the same checked
// sweep (ShardStore.Restore). Checkpoints are transient resume files,
// so any other version is refused as corrupt.
//
// The on-disk format is versioned, length-guarded and closed by an
// FNV-64a checksum over the payload; files are written to a temp file in
// the target directory and renamed into place, so a crash mid-write can
// never leave a truncated checkpoint where a valid one was.

import (
	"bufio"
	"bytes"
	"encoding/binary"
	"errors"
	"fmt"
	"hash/fnv"
	"io"
	"os"
	"path/filepath"
	"time"

	"ttastar/internal/retry"
)

const (
	checkpointMagic = "TTAMCCP\x00"
	// checkpointVersion is the two-tier snapshot every search writes and
	// resumes: the sealed arenas are serialized wholesale and the live
	// tier — exactly the frontier at a level boundary — keeps its real
	// claim keys and parent refs, so a resumed search is byte-identical
	// to the uninterrupted one.
	checkpointVersion = 5
)

// checkpointFlagReduced marks a snapshot of a reduced (quotient) search
// in the flags word.
const checkpointFlagReduced = 1 << 0

// ErrCheckpointCorrupt reports a checkpoint file that failed validation:
// wrong magic, unsupported version, checksum mismatch, truncation, or an
// internally inconsistent record graph. The file is never modified or
// removed by the reader — a corrupt snapshot is left in place for
// inspection.
var ErrCheckpointCorrupt = errors.New("mc: checkpoint corrupt")

// ErrModelMismatch reports a structurally valid checkpoint whose model
// fingerprint differs from the resuming search's model: the snapshot's
// packed encodings were produced under a different configuration and
// would decode as garbage.
var ErrModelMismatch = errors.New("mc: checkpoint model mismatch")

// cpWriter serializes with uvarints and a sticky error.
type cpWriter struct {
	w       io.Writer
	scratch [binary.MaxVarintLen64]byte
	err     error
}

func (w *cpWriter) raw(b []byte) {
	if w.err == nil {
		_, w.err = w.w.Write(b)
	}
}

func (w *cpWriter) uvarint(v uint64) {
	n := binary.PutUvarint(w.scratch[:], v)
	w.raw(w.scratch[:n])
}

// bstr writes a length-prefixed byte string.
func (w *cpWriter) bstr(b []byte) {
	w.uvarint(uint64(len(b)))
	w.raw(b)
}

// checkpointWrapWriter is a test seam: when non-nil, writeCheckpointFile
// routes every byte destined for the temp file through the returned
// writer, letting crash-consistency tests inject mid-write failures at
// arbitrary offsets without touching the filesystem layer.
var checkpointWrapWriter func(io.Writer) io.Writer

// Bounded backoff for transient checkpoint-write failures (S2): four
// attempts at 10ms, 20ms, 40ms keeps the worst-case stall under 100ms —
// negligible next to a level expansion — while riding out EINTR storms
// and momentary disk-pressure blips.
const (
	checkpointWriteAttempts = 4
	checkpointWriteBackoff  = 10 * time.Millisecond
)

// writeCheckpointFile owns the checkpoint file envelope — temp file,
// magic + version header, FNV-64a trailer, atomic rename — around a
// caller-supplied body. Every checkpoint file (engine snapshots and the
// distributed layer's barrier snapshots) goes through here so the
// envelope, the test write-wrap seam and the crash-consistency
// guarantees stay identical.
func writeCheckpointFile(path string, version uint64, body func(w *cpWriter)) error {
	tmp, err := os.CreateTemp(filepath.Dir(path), ".mc-checkpoint-*")
	if err != nil {
		return fmt.Errorf("mc: checkpoint: %w", err)
	}
	defer func() {
		if tmp != nil {
			tmp.Close()
			os.Remove(tmp.Name())
		}
	}()

	var out io.Writer = tmp
	if checkpointWrapWriter != nil {
		out = checkpointWrapWriter(tmp)
	}
	h := fnv.New64a()
	bw := bufio.NewWriterSize(io.MultiWriter(out, h), 1<<16)
	w := &cpWriter{w: bw}
	w.raw([]byte(checkpointMagic))
	w.uvarint(version)
	body(w)
	if w.err == nil {
		w.err = bw.Flush()
	}
	if w.err == nil {
		var sum [8]byte
		binary.BigEndian.PutUint64(sum[:], h.Sum64())
		_, w.err = out.Write(sum[:])
	}
	if w.err == nil {
		w.err = tmp.Close()
	}
	if w.err != nil {
		return fmt.Errorf("mc: checkpoint: %w", w.err)
	}
	name := tmp.Name()
	tmp = nil // past the point of no return; the deferred cleanup must not fire
	if err := os.Rename(name, path); err != nil {
		os.Remove(name)
		return fmt.Errorf("mc: checkpoint: %w", err)
	}
	return nil
}

// cpReader parses with uvarints, allocation guards and a sticky error.
type cpReader struct {
	r   *bytes.Reader
	err error
}

func (r *cpReader) uvarint() uint64 {
	if r.err != nil {
		return 0
	}
	v, err := binary.ReadUvarint(r.r)
	if err != nil {
		r.err = fmt.Errorf("%w: truncated", ErrCheckpointCorrupt)
	}
	return v
}

func (r *cpReader) count() int {
	n := r.uvarint()
	// Every counted element occupies at least one payload byte.
	if r.err == nil && n > uint64(r.r.Len()) {
		r.err = fmt.Errorf("%w: element count %d exceeds remaining payload", ErrCheckpointCorrupt, n)
		return 0
	}
	return int(n)
}

// readCheckpointEnvelope loads a checkpoint-format file, validates the
// envelope (magic, checksum, and the one version the caller reads) and
// returns a reader positioned at the body.
func readCheckpointEnvelope(path string, version uint64) (*cpReader, error) {
	data, err := os.ReadFile(path)
	if err != nil {
		return nil, fmt.Errorf("mc: checkpoint: %w", err)
	}
	if len(data) < len(checkpointMagic)+8 {
		return nil, fmt.Errorf("%w: file too short", ErrCheckpointCorrupt)
	}
	payload, trailer := data[:len(data)-8], data[len(data)-8:]
	h := fnv.New64a()
	h.Write(payload)
	if h.Sum64() != binary.BigEndian.Uint64(trailer) {
		return nil, fmt.Errorf("%w: checksum mismatch", ErrCheckpointCorrupt)
	}
	if string(payload[:len(checkpointMagic)]) != checkpointMagic {
		return nil, fmt.Errorf("%w: bad magic", ErrCheckpointCorrupt)
	}
	r := &cpReader{r: bytes.NewReader(payload[len(checkpointMagic):])}
	if got := r.uvarint(); r.err == nil && got != version {
		return nil, fmt.Errorf("%w: unsupported version %d", ErrCheckpointCorrupt, got)
	}
	return r, r.err
}

// bytes reads a length-prefixed byte blob with an allocation guard.
func (r *cpReader) bytes() []byte {
	n := r.uvarint()
	if r.err != nil {
		return nil
	}
	if n > uint64(r.r.Len()) {
		r.err = fmt.Errorf("%w: blob length %d exceeds remaining payload", ErrCheckpointCorrupt, n)
		return nil
	}
	buf := make([]byte, n)
	if _, err := io.ReadFull(r.r, buf); err != nil {
		r.err = fmt.Errorf("%w: truncated", ErrCheckpointCorrupt)
		return nil
	}
	return buf
}

// sealedSnap is an engine checkpoint (version 5): the per-shard sealed
// arenas wholesale, plus the live tier — exactly the frontier, in
// frontier order, with real claim keys and sealed parent refs — and the
// claim-key base the next level resumes at.
type sealedSnap struct {
	depth       int32
	resultDepth int
	transitions int
	reduced     bool
	fingerprint uint64
	nextBase    uint64
	shards      [numShards]sealedShardSnap
	live        []liveSnapEntry
}

type sealedShardSnap struct {
	count    uint32
	restarts []uint32
	blob     []byte
}

type liveSnapEntry struct {
	enc []byte
	key uint64
	pw  uint64 // parent ref+1; 0 = root
}

// checkpointSnap captures the search at a level boundary, right after
// NextLevel, where the frontier is the whole live tier and every other
// state is sealed: the arenas are referenced as they stand.
func (b *localBackend) checkpointSnap(res Result, depth int32, fingerprint, nextBase uint64) *sealedSnap {
	s5 := b.v.capture(allShards, &[numShards]segMark{}, b.frontier)
	s5.depth, s5.resultDepth, s5.transitions = depth, res.Depth, res.TransitionsExplored
	s5.reduced, s5.fingerprint, s5.nextBase = res.Reduced, fingerprint, nextBase
	return s5
}

// capture snapshots the owned shards' arenas from the marks in from —
// the segment appended since, restart offsets rebased to it — and
// frontier's live states, in its order, with their keys and parent
// words. An arena captured from its start is referenced, not copied.
func (v *visitedSet) capture(owned uint64, from *[numShards]segMark, frontier []uint32) *sealedSnap {
	s5 := &sealedSnap{live: make([]liveSnapEntry, len(frontier))}
	for i, r := range frontier {
		s5.live[i] = liveSnapEntry{enc: v.bytesOf(r), key: v.keyOf(r), pw: v.parentWordOf(r)}
	}
	for sh := range s5.shards {
		if owned&(1<<sh) == 0 {
			continue
		}
		ss, m := &v.shards[sh].sealed, from[sh]
		restarts := ss.restarts[m.nres:]
		if m.off > 0 {
			restarts = make([]uint32, len(restarts))
			for i, r := range ss.restarts[m.nres:] {
				restarts[i] = r - m.off
			}
		}
		s5.shards[sh] = sealedShardSnap{count: ss.count - m.count, restarts: restarts, blob: ss.blob[m.off:]}
	}
	return s5
}

// writeSealedSnap writes s5 as a version-5 file.
func writeSealedSnap(path string, s5 *sealedSnap) error {
	return writeCheckpointFile(path, checkpointVersion, func(w *cpWriter) {
		w.uvarint(uint64(uint32(s5.depth)))
		w.uvarint(uint64(s5.resultDepth))
		w.uvarint(uint64(s5.transitions))
		flags := uint64(0)
		if s5.reduced {
			flags |= checkpointFlagReduced
		}
		w.uvarint(flags)
		w.uvarint(s5.fingerprint)
		w.uvarint(s5.nextBase)
		for si := range s5.shards {
			sn := &s5.shards[si]
			w.uvarint(uint64(sn.count))
			prev := uint32(0)
			for _, r := range sn.restarts {
				w.uvarint(uint64(r - prev))
				prev = r
			}
			w.bstr(sn.blob)
		}
		w.uvarint(uint64(len(s5.live)))
		for _, le := range s5.live {
			w.bstr(le.enc)
			w.uvarint(le.key)
			w.uvarint(le.pw)
		}
	})
}

// writeSealedSnapRetry is writeSealedSnap retrying transient filesystem
// failures (EINTR, EAGAIN, ENOSPC, ...) with bounded exponential
// backoff. It returns the number of retries alongside the final error,
// so callers can surface "the snapshot needed retries" or "the snapshot
// was ultimately dropped" in their stats instead of losing it silently.
func writeSealedSnapRetry(path string, s5 *sealedSnap) (int, error) {
	return retry.Do(checkpointWriteAttempts, checkpointWriteBackoff, nil, func() error {
		return writeSealedSnap(path, s5)
	})
}

// readSealedSnap loads the engine checkpoint at path; a missing file (or
// no path) yields nil, so interrupt/resume loops need no existence
// checks.
func readSealedSnap(path string) (*sealedSnap, error) {
	if path == "" {
		return nil, nil
	}
	s5 := &sealedSnap{}
	err := s5.load(path)
	if errors.Is(err, os.ErrNotExist) {
		return nil, nil
	}
	if err != nil {
		return nil, err
	}
	return s5, nil
}

// minSealedRecord is the smallest arena record: a one-byte parent word
// and a one-byte encoding length.
const minSealedRecord = 2

// load reads the version-5 file at path onto s5: each shard's arena
// section is appended to s5's arena for that shard, and the file's
// header and live tier replace s5's. Loaded into an empty snapshot, one
// file is an engine checkpoint; a worker's barrier files loaded in
// order concatenate its segments (ShardStore.Restore). Restart offsets
// are written relative to the section's own bytes, and a section holds
// the restarts of the ordinals it appends. Arena bytes are validated
// later, by restore's checked decode sweep; this pass only enforces
// structural bounds.
func (s5 *sealedSnap) load(path string) error {
	r, err := readCheckpointEnvelope(path, checkpointVersion)
	if err != nil {
		return err
	}
	s5.depth = int32(r.uvarint())
	s5.resultDepth = int(r.uvarint())
	s5.transitions = int(r.uvarint())
	s5.reduced = r.uvarint()&checkpointFlagReduced != 0
	s5.fingerprint = r.uvarint()
	s5.nextBase = r.uvarint()
	for si := range s5.shards {
		sn := &s5.shards[si]
		cnt := r.uvarint()
		if r.err != nil {
			return r.err
		}
		if cnt > maxOrdinal-uint64(sn.count) {
			return fmt.Errorf("%w: sealed shard holds over %d entries", ErrCheckpointCorrupt, maxOrdinal)
		}
		first := (int(sn.count) + sealedRestartEvery - 1) / sealedRestartEvery
		nres := (int(sn.count)+int(cnt)+sealedRestartEvery-1)/sealedRestartEvery - first
		if uint64(nres) > uint64(r.r.Len()) {
			return fmt.Errorf("%w: restart count exceeds remaining payload", ErrCheckpointCorrupt)
		}
		base, prev := uint64(len(sn.blob)), uint64(0)
		for i := 0; i < nres; i++ {
			prev += r.uvarint()
			if base+prev > uint64(1)<<32-1 {
				return fmt.Errorf("%w: restart offset overflow", ErrCheckpointCorrupt)
			}
			sn.restarts = append(sn.restarts, uint32(base+prev))
		}
		blob := r.bytes()
		if r.err != nil {
			return r.err
		}
		onRestart := sn.count%sealedRestartEvery == 0
		if nres > 0 && ((onRestart && sn.restarts[first] != uint32(base)) || prev >= uint64(len(blob))) {
			return fmt.Errorf("%w: restart offsets out of range", ErrCheckpointCorrupt)
		}
		if cnt == 0 && len(blob) != 0 {
			return fmt.Errorf("%w: empty sealed shard with arena bytes", ErrCheckpointCorrupt)
		}
		if cnt*minSealedRecord > uint64(len(blob)) {
			return fmt.Errorf("%w: %d sealed entries in %d arena bytes", ErrCheckpointCorrupt, cnt, len(blob))
		}
		sn.count += uint32(cnt)
		switch {
		case len(blob) == 0:
		case sn.blob == nil:
			sn.blob = blob
		default:
			sn.blob = append(sn.blob, blob...)
		}
	}
	n := r.count()
	s5.live = make([]liveSnapEntry, 0, n)
	for i := 0; i < n && r.err == nil; i++ {
		le := liveSnapEntry{enc: r.bytes()}
		le.key = r.uvarint()
		le.pw = r.uvarint()
		if r.err == nil && le.key > keyMask {
			return fmt.Errorf("%w: live claim key out of range", ErrCheckpointCorrupt)
		}
		s5.live = append(s5.live, le)
	}
	if r.err != nil {
		return r.err
	}
	if r.r.Len() != 0 {
		return fmt.Errorf("%w: %d trailing bytes", ErrCheckpointCorrupt, r.r.Len())
	}
	return nil
}

// parentRef checks a parent word against the snapshot's sealed tier: a
// parent is always sealed, whichever tier its child is in. A parent in
// a shard owned elsewhere cannot be checked here; its owner refuses it
// if it does not hold it.
func (s5 *sealedSnap) parentRef(pw uint64, owned uint64) (ref uint32, hasParent bool, err error) {
	if pw == 0 {
		return 0, false, nil
	}
	if pw-1 > uint64(^uint32(0)) {
		return 0, false, fmt.Errorf("%w: parent ref overflow", ErrCheckpointCorrupt)
	}
	ref = uint32(pw - 1)
	s := ref & (numShards - 1)
	if owned&(1<<s) != 0 && ref>>shardBits >= s5.shards[s].count {
		return 0, false, fmt.Errorf("%w: parent ref beyond sealed tier", ErrCheckpointCorrupt)
	}
	return ref, true, nil
}

// restore loads a checkpoint into an empty set and returns the frontier
// refs; with the snapshot's nextBase they continue the interrupted run
// byte-for-byte. owned is the set of shards the set holds (allShards
// for the engine; a distributed worker's own).
//
// One checked decode sweep runs over each shard's arena. Every entry
// must hash to the shard it is stored in, that shard must be owned,
// and the entry must appear once: the arena is installed wholesale and
// its probe index rebuilt as the sweep goes, each entry probed before
// it is inserted. The index replays the writer's growth schedule, so
// capacities — and resident bytes — come out exactly as written. The
// live tier is then claimed with its real keys in frontier order.
func (v *visitedSet) restore(s5 *sealedSnap, owned uint64) ([]uint32, error) {
	total := int64(len(s5.live))
	for i := range s5.shards {
		total += int64(s5.shards[i].count)
	}
	if total > v.max {
		return nil, fmt.Errorf("mc: checkpoint holds %d states, over the %d-state budget: %w",
			total, v.max, ErrStateLimit)
	}
	var d, probe sealedDecoder
	for si := range v.shards {
		sn := &s5.shards[si]
		if sn.count == 0 {
			continue
		}
		if owned&(1<<si) == 0 {
			return nil, fmt.Errorf("%w: arena for shard %d, which is not owned here", ErrCheckpointCorrupt, si)
		}
		sh := &v.shards[si]
		ss := &sh.sealed
		newLen := sealedInitialCells
		for uint64(sn.count)*4 > uint64(newLen)*3 {
			newLen = sealedGrow(newLen)
		}
		ss.index = make([]uint32, newLen)
		ss.count, ss.blob, ss.restarts = sn.count, sn.blob, sn.restarts
		d.startAt(ss, 0)
		for d.ord < sn.count {
			ord := d.ord
			if err := d.stepChecked(len(ss.blob)); err != nil {
				return nil, fmt.Errorf("%w: shard %d ordinal %d: %v", ErrCheckpointCorrupt, si, ord, err)
			}
			if _, _, err := s5.parentRef(d.pw, owned); err != nil {
				return nil, err
			}
			h := hashBytes(d.enc)
			if ShardOf(h) != uint32(si) {
				return nil, fmt.Errorf("%w: shard %d ordinal %d: entry belongs in shard %d",
					ErrCheckpointCorrupt, si, ord, ShardOf(h))
			}
			if _, dup := ss.find(uint32(h>>32), d.enc, &probe); dup {
				return nil, fmt.Errorf("%w: shard %d ordinal %d: duplicate sealed entry", ErrCheckpointCorrupt, si, ord)
			}
			ss.indexInsert(uint32(h>>32), ord)
		}
		if d.off != len(ss.blob) {
			return nil, fmt.Errorf("%w: %d trailing arena bytes", ErrCheckpointCorrupt, len(ss.blob)-d.off)
		}
		// Seed the delta chain so later seals append seamlessly.
		ss.lastEnc = append(ss.lastEnc[:0], d.enc...)
		ss.lastPW = d.pw
		sh.liveBase = sn.count
		sh.ordCount = sn.count
		v.resident.Add(ss.residentBytes())
		v.count.Add(int64(sn.count)) // live claims charge themselves
	}
	var pc probeCounter
	frontier := make([]uint32, 0, len(s5.live))
	for _, le := range s5.live {
		if le.key >= s5.nextBase {
			return nil, fmt.Errorf("%w: live claim key at or past the resumed base", ErrCheckpointCorrupt)
		}
		parent, hasParent, err := s5.parentRef(le.pw, owned)
		if err != nil {
			return nil, err
		}
		h := hashBytes(le.enc)
		if owned&(1<<ShardOf(h)) == 0 {
			return nil, fmt.Errorf("%w: live state of shard %d, which is not owned here", ErrCheckpointCorrupt, ShardOf(h))
		}
		st, ref := v.claim(le.enc, h, parent, le.key, hasParent, le.key+1, &pc)
		if st != ClaimNew {
			return nil, fmt.Errorf("%w: duplicate live state", ErrCheckpointCorrupt)
		}
		frontier = append(frontier, ref)
	}
	v.bumpPeak()
	return frontier, nil
}
