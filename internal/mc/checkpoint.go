package mc

// Checkpoint codec for the BFS engine.
//
// A checkpoint is taken at a level boundary — the only point where the
// whole search state is a frontier, a visited set, and two counters — so
// resuming replays the remaining levels exactly as the uninterrupted run
// would have executed them. Together with the min-claim-key determinism
// of the parallel engine this makes resumed results byte-identical to
// uninterrupted ones for any worker count.
//
// The classic format (version 4) stores the search counters, a
// search-flags word (bit 0: the search ran reduced — its states are
// canonical representatives, so it must be resumed reduced), the model
// fingerprint — a digest of the model configuration the encodings were
// packed under, so a resume against a differently-parameterized model
// (other node or coupler count, authority, option bits) fails loudly
// instead of silently decoding garbage — and then one record per
// visited state: encoding, parent encoding, and a root flag. Checkpoints
// are transient resume files, so the reader accepts only the versions
// this build writes (4 and 5); older files are refused as corrupt.
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
	"sort"
	"time"

	"ttastar/internal/retry"
)

const (
	checkpointMagic = "TTAMCCP\x00"
	// checkpointVersion is the classic per-state format WriteCheckpoint
	// emits (and the distributed layer's delta files reuse), and the
	// oldest format the reader accepts. checkpointVersionSealed is the
	// two-tier engine snapshot
	// (version 5): the sealed arenas are serialized wholesale and the
	// live tier — exactly the frontier at a level boundary — keeps its
	// real claim keys and parent refs, so a resumed search is
	// byte-identical to the uninterrupted one, resident footprint
	// included. The engine writes v5 once anything is sealed and falls
	// back to v4 for unsealed searches (Options.NoSeal, or an interrupt
	// before the first level boundary).
	checkpointVersion       = 4
	checkpointVersionSealed = 5
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

// Checkpoint is a resumable snapshot of a search at a level boundary.
type Checkpoint struct {
	// Depth is the next BFS level to expand.
	Depth int32
	// ResultDepth and Transitions carry the Result counters accumulated
	// by the levels already completed.
	ResultDepth int
	Transitions int
	// Reduced records whether the snapshot belongs to a reduced search:
	// its states are canonical representatives, meaningless to a
	// non-reduced resume (and vice versa), so the engine refuses a
	// mode-mismatched resume.
	Reduced bool
	// Fingerprint is the digest of the model configuration the snapshot
	// was taken under (FingerprintedModel); 0 when the model carries
	// none. The engine refuses a resume whose
	// model fingerprint differs — best-effort: enforced only when both
	// sides are nonzero.
	Fingerprint uint64
	// Frontier is the next frontier in serial claim-key order.
	Frontier []State
	// Visited is every admitted state with its trace-reconstruction
	// record, in canonical (state-sorted) order.
	Visited []VisitedEntry
}

// VisitedEntry is one visited-set record in a checkpoint.
type VisitedEntry struct {
	State     State
	Parent    State
	HasParent bool
}

// snapshot captures the engine state between levels as a Checkpoint. The
// engine's slot refs are converted back to opaque States at this
// boundary — a cold path. Entries are sorted by state encoding so
// checkpoint bytes are canonical regardless of insertion order or worker
// count.
func snapshot(v *visitedSet, res Result, frontier []uint32, depth int32, fingerprint uint64) *Checkpoint {
	cp := &Checkpoint{
		Depth:       depth,
		ResultDepth: res.Depth,
		Transitions: res.TransitionsExplored,
		Reduced:     res.Reduced,
		Fingerprint: fingerprint,
		Frontier:    make([]State, len(frontier)),
		Visited:     make([]VisitedEntry, 0, v.count.Load()),
	}
	for i := range frontier {
		cp.Frontier[i] = v.stateOf(frontier[i])
	}
	for si := range v.shards {
		sh := &v.shards[si]
		sh.mu.Lock()
		for o := uint32(0); o < sh.ordCount; o++ {
			ref := makeRef(uint32(si), o)
			e := VisitedEntry{State: v.stateOf(ref)}
			if p, ok := v.parentOf(ref); ok {
				e.Parent = v.stateOf(p)
				e.HasParent = true
			}
			cp.Visited = append(cp.Visited, e)
		}
		sh.mu.Unlock()
	}
	sort.Slice(cp.Visited, func(i, j int) bool { return cp.Visited[i].State < cp.Visited[j].State })
	return cp
}

// restore loads a checkpoint into the visited set and returns the saved
// frontier as engine refs. It runs in two passes: admit every state
// (with key 0 — any resumed level's base orders past it), then resolve
// parent encodings to slot refs by probing. The restored states are
// charged against the current budget.
func (v *visitedSet) restore(cp *Checkpoint) ([]uint32, error) {
	if int64(len(cp.Visited)) > v.max {
		return nil, fmt.Errorf("mc: checkpoint holds %d states, over the %d-state budget: %w",
			len(cp.Visited), v.max, ErrStateLimit)
	}
	refs := make([]uint32, len(cp.Visited))
	for i, e := range cp.Visited {
		enc := []byte(e.State)
		st, ref := v.claim(enc, hashBytes(enc), 0, 0, e.HasParent, 1, nil)
		if st != ClaimNew {
			return nil, fmt.Errorf("%w: duplicate visited state", ErrCheckpointCorrupt)
		}
		refs[i] = ref
	}
	// Every restored entry carries key 0, so the first level boundary
	// cannot tell their levels apart: it seals them as one batch, in
	// this (state-sorted, deterministic) order.
	v.restoredAll = refs
	for i, e := range cp.Visited {
		if !e.HasParent {
			continue
		}
		penc := []byte(e.Parent)
		pref, ok := v.find(penc, hashBytes(penc))
		if !ok {
			return nil, fmt.Errorf("%w: parent state missing from visited set", ErrCheckpointCorrupt)
		}
		v.entryOf(refs[i]).parent = pref
	}
	frontier := make([]uint32, len(cp.Frontier))
	for i, s := range cp.Frontier {
		enc := []byte(s)
		ref, ok := v.find(enc, hashBytes(enc))
		if !ok {
			return nil, fmt.Errorf("%w: frontier state missing from visited set", ErrCheckpointCorrupt)
		}
		frontier[i] = ref
	}
	return frontier, nil
}

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

func (w *cpWriter) str(s State) {
	w.uvarint(uint64(len(s)))
	w.raw([]byte(s))
}

// bstr writes a length-prefixed byte string without the State round
// trip — the streaming delta writer feeds store-log slices straight
// through, so the hot path stays allocation-free.
func (w *cpWriter) bstr(b []byte) {
	w.uvarint(uint64(len(b)))
	w.raw(b)
}

func (w *cpWriter) byte1(b byte) {
	w.scratch[0] = b
	w.raw(w.scratch[:1])
}

// sstr writes a length-prefixed string without converting to []byte;
// io.WriteString reaches bufio's copy-free WriteString fast path.
func (w *cpWriter) sstr(s string) {
	w.uvarint(uint64(len(s)))
	if w.err == nil {
		_, w.err = io.WriteString(w.w, s)
	}
}

// checkpointWrapWriter is a test seam: when non-nil, WriteCheckpoint
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

// WriteCheckpointRetry writes cp to path like WriteCheckpoint, retrying
// transient filesystem failures (EINTR, EAGAIN, ENOSPC, ...) with
// bounded exponential backoff. It returns the number of retries
// performed alongside the final error, so callers can surface "the
// snapshot needed retries" or "the snapshot was ultimately dropped" in
// their stats instead of losing it silently.
func WriteCheckpointRetry(path string, cp *Checkpoint) (int, error) {
	return retry.Do(checkpointWriteAttempts, checkpointWriteBackoff, nil, func() error {
		return WriteCheckpoint(path, cp)
	})
}

// WriteCheckpoint atomically writes cp to path: the payload goes to a
// temp file in the same directory, is checksummed, and renamed over the
// target only once complete.
func WriteCheckpoint(path string, cp *Checkpoint) error {
	return writeCheckpointFile(path, checkpointVersion, func(w *cpWriter) {
		w.uvarint(uint64(uint32(cp.Depth)))
		w.uvarint(uint64(cp.ResultDepth))
		w.uvarint(uint64(cp.Transitions))
		flags := uint64(0)
		if cp.Reduced {
			flags |= checkpointFlagReduced
		}
		w.uvarint(flags)
		w.uvarint(cp.Fingerprint)
		w.uvarint(uint64(len(cp.Frontier)))
		for _, s := range cp.Frontier {
			w.str(s)
		}
		w.uvarint(uint64(len(cp.Visited)))
		for _, e := range cp.Visited {
			w.str(e.State)
			w.str(e.Parent)
			flags := byte(0)
			if e.HasParent {
				flags = 1
			}
			w.raw([]byte{flags})
		}
	})
}

// writeCheckpointFile owns the checkpoint file envelope — temp file,
// magic + version header, FNV-64a trailer, atomic rename — around a
// caller-supplied body. Every checkpoint-format file (full engine
// snapshots and the distributed layer's per-level shard deltas) goes
// through here so the envelope, the test write-wrap seam and the
// crash-consistency guarantees stay identical.
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

func (r *cpReader) str() State {
	n := r.uvarint()
	if r.err != nil {
		return ""
	}
	if n > uint64(r.r.Len()) {
		r.err = fmt.Errorf("%w: string length %d exceeds remaining payload", ErrCheckpointCorrupt, n)
		return ""
	}
	buf := make([]byte, n)
	if _, err := io.ReadFull(r.r, buf); err != nil {
		r.err = fmt.Errorf("%w: truncated", ErrCheckpointCorrupt)
		return ""
	}
	return State(buf)
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
// envelope (magic, checksum, version range) and returns the format
// version with a reader positioned at the body.
func readCheckpointEnvelope(path string) (uint64, *cpReader, error) {
	data, err := os.ReadFile(path)
	if err != nil {
		return 0, nil, fmt.Errorf("mc: checkpoint: %w", err)
	}
	if len(data) < len(checkpointMagic)+8 {
		return 0, nil, fmt.Errorf("%w: file too short", ErrCheckpointCorrupt)
	}
	payload, trailer := data[:len(data)-8], data[len(data)-8:]
	h := fnv.New64a()
	h.Write(payload)
	if h.Sum64() != binary.BigEndian.Uint64(trailer) {
		return 0, nil, fmt.Errorf("%w: checksum mismatch", ErrCheckpointCorrupt)
	}
	if string(payload[:len(checkpointMagic)]) != checkpointMagic {
		return 0, nil, fmt.Errorf("%w: bad magic", ErrCheckpointCorrupt)
	}
	r := &cpReader{r: bytes.NewReader(payload[len(checkpointMagic):])}
	version := r.uvarint()
	if r.err == nil && (version < checkpointVersion || version > checkpointVersionSealed) {
		return 0, nil, fmt.Errorf("%w: unsupported version %d", ErrCheckpointCorrupt, version)
	}
	return version, r, r.err
}

// ReadCheckpoint loads and validates a checkpoint file: the version-5
// sealed-tier format or the classic version-4 format; anything older is
// refused with ErrCheckpointCorrupt. A version-5 file is materialized into the
// classic per-state Checkpoint form — losing the claim keys and the
// compact representation, so a resume through this API behaves like a
// v4 resume; the engine's own resume path (resolveResume) consumes v5
// natively instead. A missing file surfaces as an error wrapping
// os.ErrNotExist so callers can treat it as "start fresh".
func ReadCheckpoint(path string) (*Checkpoint, error) {
	version, r, err := readCheckpointEnvelope(path)
	if err != nil {
		return nil, err
	}
	if version == checkpointVersionSealed {
		s5, err := parseSealedSnap(r)
		if err != nil {
			return nil, err
		}
		return s5.materialize()
	}
	return parseClassicCheckpoint(r)
}

// parseClassicCheckpoint parses a v4 body.
func parseClassicCheckpoint(r *cpReader) (*Checkpoint, error) {
	cp := &Checkpoint{
		Depth:       int32(r.uvarint()),
		ResultDepth: int(r.uvarint()),
		Transitions: int(r.uvarint()),
	}
	cp.Reduced = r.uvarint()&checkpointFlagReduced != 0
	cp.Fingerprint = r.uvarint()
	cp.Frontier = make([]State, 0, r.count())
	for i := cap(cp.Frontier); i > 0 && r.err == nil; i-- {
		cp.Frontier = append(cp.Frontier, r.str())
	}
	cp.Visited = make([]VisitedEntry, 0, r.count())
	for i := cap(cp.Visited); i > 0 && r.err == nil; i-- {
		e := VisitedEntry{State: r.str(), Parent: r.str()}
		var flags [1]byte
		if _, err := io.ReadFull(r.r, flags[:]); err != nil {
			r.err = fmt.Errorf("%w: truncated", ErrCheckpointCorrupt)
		}
		e.HasParent = flags[0] != 0
		cp.Visited = append(cp.Visited, e)
	}
	if r.err != nil {
		return nil, r.err
	}
	if r.r.Len() != 0 {
		return nil, fmt.Errorf("%w: %d trailing bytes", ErrCheckpointCorrupt, r.r.Len())
	}
	return cp, nil
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

// sealedSnap is the parsed native form of a version-5 (sealed-tier)
// checkpoint: the per-shard arenas wholesale, plus the live tier —
// exactly the frontier, in frontier order, with real claim keys and
// sealed parent refs — and the claim-key base the next level resumes
// at.
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

// writeSealedCheckpoint writes the engine's two-tier state as a
// version-5 snapshot. Must be called at a level boundary right after a
// seal, where the live tier is exactly the frontier and every live
// parent is sealed.
func writeSealedCheckpoint(path string, v *visitedSet, res Result,
	frontier []uint32, depth int32, fingerprint, nextBase uint64) error {
	return writeCheckpointFile(path, checkpointVersionSealed, func(w *cpWriter) {
		w.uvarint(uint64(uint32(depth)))
		w.uvarint(uint64(res.Depth))
		w.uvarint(uint64(res.TransitionsExplored))
		flags := uint64(0)
		if res.Reduced {
			flags |= checkpointFlagReduced
		}
		w.uvarint(flags)
		w.uvarint(fingerprint)
		w.uvarint(nextBase)
		for si := range v.shards {
			ss := &v.shards[si].sealed
			w.uvarint(uint64(ss.count))
			prev := uint32(0)
			for _, r := range ss.restarts {
				w.uvarint(uint64(r - prev))
				prev = r
			}
			w.bstr(ss.blob)
		}
		w.uvarint(uint64(len(frontier)))
		for _, ref := range frontier {
			w.bstr(v.bytesOf(ref))
			w.uvarint(v.keyOf(ref))
			w.uvarint(v.parentWordOf(ref))
		}
	})
}

// writeSealedCheckpointRetry is writeSealedCheckpoint under the same
// bounded transient-failure retry policy as WriteCheckpointRetry.
func writeSealedCheckpointRetry(path string, v *visitedSet, res Result,
	frontier []uint32, depth int32, fingerprint, nextBase uint64) (int, error) {
	return retry.Do(checkpointWriteAttempts, checkpointWriteBackoff, nil, func() error {
		return writeSealedCheckpoint(path, v, res, frontier, depth, fingerprint, nextBase)
	})
}

// parseSealedSnap parses a version-5 body. Arena bytes are validated
// later, by the checked decode sweep that rebuilds the probe indexes
// (restoreSealed / materialize); this pass only enforces structural
// bounds.
func parseSealedSnap(r *cpReader) (*sealedSnap, error) {
	s5 := &sealedSnap{
		depth:       int32(r.uvarint()),
		resultDepth: int(r.uvarint()),
		transitions: int(r.uvarint()),
	}
	s5.reduced = r.uvarint()&checkpointFlagReduced != 0
	s5.fingerprint = r.uvarint()
	s5.nextBase = r.uvarint()
	for si := range s5.shards {
		sn := &s5.shards[si]
		cnt := r.uvarint()
		if r.err != nil {
			return nil, r.err
		}
		if cnt > maxOrdinal {
			return nil, fmt.Errorf("%w: sealed shard holds %d entries", ErrCheckpointCorrupt, cnt)
		}
		sn.count = uint32(cnt)
		nres := (int(cnt) + sealedRestartEvery - 1) / sealedRestartEvery
		if uint64(nres) > uint64(r.r.Len()) {
			return nil, fmt.Errorf("%w: restart count exceeds remaining payload", ErrCheckpointCorrupt)
		}
		prev := uint64(0)
		for i := 0; i < nres; i++ {
			prev += r.uvarint()
			if prev > uint64(1)<<32-1 {
				return nil, fmt.Errorf("%w: restart offset overflow", ErrCheckpointCorrupt)
			}
			sn.restarts = append(sn.restarts, uint32(prev))
		}
		sn.blob = r.bytes()
		if r.err != nil {
			return nil, r.err
		}
		if nres > 0 && (sn.restarts[0] != 0 || int(sn.restarts[nres-1]) >= len(sn.blob)) {
			return nil, fmt.Errorf("%w: restart offsets out of range", ErrCheckpointCorrupt)
		}
		if cnt == 0 && len(sn.blob) != 0 {
			return nil, fmt.Errorf("%w: empty sealed shard with arena bytes", ErrCheckpointCorrupt)
		}
	}
	n := r.count()
	for i := 0; i < n && r.err == nil; i++ {
		le := liveSnapEntry{enc: r.bytes()}
		le.key = r.uvarint()
		le.pw = r.uvarint()
		if r.err == nil && le.key > keyMask {
			return nil, fmt.Errorf("%w: live claim key out of range", ErrCheckpointCorrupt)
		}
		s5.live = append(s5.live, le)
	}
	if r.err != nil {
		return nil, r.err
	}
	if r.r.Len() != 0 {
		return nil, fmt.Errorf("%w: %d trailing bytes", ErrCheckpointCorrupt, r.r.Len())
	}
	return s5, nil
}

// sealedRefState resolves a sealed parent word against per-shard
// decoded state tables.
func sealedRefState(states *[numShards][]State, pw uint64) (State, bool, error) {
	if pw == 0 {
		return "", false, nil
	}
	if pw-1 > uint64(^uint32(0)) {
		return "", false, fmt.Errorf("%w: parent ref overflow", ErrCheckpointCorrupt)
	}
	ref := uint32(pw - 1)
	si, o := ref&(numShards-1), ref>>shardBits
	if int(o) >= len(states[si]) {
		return "", false, fmt.Errorf("%w: parent ref beyond sealed tier", ErrCheckpointCorrupt)
	}
	return states[si][o], true, nil
}

// materialize converts a parsed v5 snapshot into the classic
// per-state Checkpoint form: every arena fully decoded (checked), refs
// resolved back to parent encodings, entries state-sorted. Claim keys
// are dropped — the classic form never had them — so a resume from the
// materialized form behaves like a v4 resume.
func (s5 *sealedSnap) materialize() (*Checkpoint, error) {
	var states [numShards][]State
	var pws [numShards][]uint64
	var d sealedDecoder
	for si := range s5.shards {
		sn := &s5.shards[si]
		if sn.count == 0 {
			continue
		}
		ss := &sealedShard{count: sn.count, blob: sn.blob, restarts: sn.restarts}
		d.startAt(ss, 0, true)
		for d.ord < sn.count {
			if err := d.stepChecked(len(ss.blob)); err != nil {
				return nil, fmt.Errorf("%w: %v", ErrCheckpointCorrupt, err)
			}
			states[si] = append(states[si], State(d.enc))
			pws[si] = append(pws[si], d.pw)
		}
		if d.off != len(ss.blob) {
			return nil, fmt.Errorf("%w: %d trailing arena bytes", ErrCheckpointCorrupt, len(ss.blob)-d.off)
		}
	}
	cp := &Checkpoint{
		Depth:       s5.depth,
		ResultDepth: s5.resultDepth,
		Transitions: s5.transitions,
		Reduced:     s5.reduced,
		Fingerprint: s5.fingerprint,
	}
	for si := range states {
		for o, st := range states[si] {
			p, has, err := sealedRefState(&states, pws[si][o])
			if err != nil {
				return nil, err
			}
			cp.Visited = append(cp.Visited, VisitedEntry{State: st, Parent: p, HasParent: has})
		}
	}
	for _, le := range s5.live {
		p, has, err := sealedRefState(&states, le.pw)
		if err != nil {
			return nil, err
		}
		cp.Visited = append(cp.Visited, VisitedEntry{State: State(le.enc), Parent: p, HasParent: has})
		cp.Frontier = append(cp.Frontier, State(le.enc))
	}
	sort.Slice(cp.Visited, func(i, j int) bool { return cp.Visited[i].State < cp.Visited[j].State })
	return cp, nil
}

// restoreSealed loads a v5 snapshot natively: arenas are installed
// wholesale (their probe indexes rebuilt by a checked decode sweep
// replaying the writer's growth schedule, so capacities — and resident
// bytes — come out exactly as written) and the live entries are claimed
// with their real keys in frontier order. The returned frontier plus
// the snapshot's nextBase continue the interrupted run byte-for-byte.
func (v *visitedSet) restoreSealed(s5 *sealedSnap) ([]uint32, error) {
	total := int64(len(s5.live))
	for i := range s5.shards {
		total += int64(s5.shards[i].count)
	}
	if total > v.max {
		return nil, fmt.Errorf("mc: checkpoint holds %d states, over the %d-state budget: %w",
			total, v.max, ErrStateLimit)
	}
	var d sealedDecoder
	for si := range v.shards {
		sn := &s5.shards[si]
		if sn.count == 0 {
			continue
		}
		sh := &v.shards[si]
		ss := &sh.sealed
		ss.count = sn.count
		ss.blob = sn.blob
		ss.restarts = sn.restarts
		newLen := sealedInitialCells
		for uint64(sn.count)*4 > uint64(newLen)*3 {
			newLen = sealedGrow(newLen)
		}
		ss.index = make([]uint32, newLen)
		d.startAt(ss, 0, v.parentIsRef)
		for d.ord < sn.count {
			ord := d.ord
			if err := d.stepChecked(len(ss.blob)); err != nil {
				return nil, fmt.Errorf("%w: shard %d ordinal %d: %v", ErrCheckpointCorrupt, si, ord, err)
			}
			if d.pw != 0 {
				if d.pw-1 > uint64(^uint32(0)) {
					return nil, fmt.Errorf("%w: parent ref overflow", ErrCheckpointCorrupt)
				}
				pref := uint32(d.pw - 1)
				if pref>>shardBits >= s5.shards[pref&(numShards-1)].count {
					return nil, fmt.Errorf("%w: parent ref beyond sealed tier", ErrCheckpointCorrupt)
				}
			}
			h := hashBytes(d.enc)
			ss.indexInsert(uint32(h>>32), ord)
		}
		if d.off != len(ss.blob) {
			return nil, fmt.Errorf("%w: %d trailing arena bytes", ErrCheckpointCorrupt, len(ss.blob)-d.off)
		}
		// Seed the delta-chain carry so later seals append seamlessly.
		ss.lastEnc = append(ss.lastEnc[:0], d.enc...)
		ss.lastPW = d.pw
		sh.liveBase = sn.count
		sh.ordCount = sn.count
		v.resident.Add(ss.residentBytes())
	}
	v.count.Add(total - int64(len(s5.live))) // live entries charge via claim
	var pc probeCounter
	frontier := make([]uint32, 0, len(s5.live))
	for _, le := range s5.live {
		if le.key >= s5.nextBase {
			return nil, fmt.Errorf("%w: live claim key at or past the resumed base", ErrCheckpointCorrupt)
		}
		hasParent := le.pw != 0
		var parent uint32
		if hasParent {
			if le.pw-1 > uint64(^uint32(0)) {
				return nil, fmt.Errorf("%w: parent ref overflow", ErrCheckpointCorrupt)
			}
			parent = uint32(le.pw - 1)
			if parent>>shardBits >= v.shards[parent&(numShards-1)].sealed.count {
				return nil, fmt.Errorf("%w: live parent not sealed", ErrCheckpointCorrupt)
			}
		}
		st, ref := v.claim(le.enc, hashBytes(le.enc), parent, le.key, hasParent, le.key+1, &pc)
		if st != ClaimNew {
			return nil, fmt.Errorf("%w: duplicate live state", ErrCheckpointCorrupt)
		}
		frontier = append(frontier, ref)
	}
	v.bumpPeak()
	return frontier, nil
}
