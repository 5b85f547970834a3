package mc

// The checkpoint chain: the one on-disk form of a search at a level
// barrier. The in-process engine and every distributed worker write it,
// and one restore call reads it back into either.
//
// A checkpoint is a manifest plus the files it lists, all in the
// manifest's directory:
//
//   - A segment holds, for a set of shards, the sealed-arena bytes its
//     writer appended since its last successful write: per shard, the
//     entries the arena held before the section, the section's entry
//     count, its restart offsets (relative to the section) and its bytes.
//     A shard's sections, concatenated in chain order, are its arena byte
//     for byte, whichever writer wrote them: the engine writes one
//     segment over every shard per checkpoint, a distributed worker one
//     over its own shards per barrier (BarrierFiles names both).
//   - A frontier file holds one barrier's live states — encoding, claim
//     key, sealed parent ref — in key order.
//   - The manifest holds the search counters; a flags word (bit 0: the
//     search ran reduced, so it must be resumed reduced); the model
//     fingerprint, a digest of the configuration the encodings were
//     packed under, so a resume against a differently-parameterized
//     model fails loudly instead of decoding garbage; the claim-key base
//     the next level starts at; every segment of the chain in order; and
//     the barrier's frontier files. Each listed file carries its
//     checksum, so a manifest never reads a file it did not list.
//
// One atomic rename of the manifest closes a barrier (Chain.Commit), and
// the frontier files of the manifest it replaced are deleted after it. A
// barrier is a level boundary, where the whole search state is a
// frontier, a sealed visited set and two counters, so a resumed search
// replays the remaining levels exactly as the uninterrupted run would:
// resumed results are byte-identical to uninterrupted ones for any
// worker count, in-process or distributed, whichever wrote the chain.
//
// Every file goes through internal/codec, the one byte format of the
// repo's process and file boundaries: the shared envelope (magic,
// version 6, kind, FNV-64a trailer; written to a temp file in the target
// directory and renamed into place, so a crash mid-write never leaves a
// truncated file where a valid one was) around a body read through a
// length-guarded codec.Reader. Checkpoints are transient resume files:
// any other version — the retired single-file formats 1–5 included — is
// refused as corrupt.

import (
	"errors"
	"fmt"
	"os"
	"path/filepath"
	"slices"
	"strings"

	"ttastar/internal/codec"
	"ttastar/internal/retry"
)

// The kind word after the version tells a chain's files apart.
const (
	kindManifest = iota + 1
	kindSegment
	kindFrontier
)

// checkpointFlagReduced marks a chain of a reduced (quotient) search in
// the manifest's flags word.
const checkpointFlagReduced = 1 << 0

// ErrCheckpointCorrupt reports a checkpoint that failed validation: wrong
// magic, unsupported version, checksum mismatch, truncation, a listed file
// that is not the one the manifest names, segments out of chain order, or
// an internally inconsistent record graph. The reader never modifies or
// removes a file — a corrupt checkpoint is left in place for inspection.
var ErrCheckpointCorrupt = errors.New("mc: checkpoint corrupt")

// ErrModelMismatch reports a structurally valid checkpoint whose model
// fingerprint differs from the resuming search's model: the snapshot's
// packed encodings were produced under a different configuration and
// would decode as garbage.
var ErrModelMismatch = errors.New("mc: checkpoint model mismatch")

// chainFormat is the envelope of every chain file.
var chainFormat = codec.Format{Magic: "TTAMCCP\x00", Version: 6, Corrupt: ErrCheckpointCorrupt}

// ChainHeader is the search state a closed barrier records besides its
// states: the frontier's BFS depth, the Result counters at the barrier,
// the search mode and model fingerprint, and the claim-key base of the
// level that expands the frontier.
type ChainHeader struct {
	Depth       int32
	ResultDepth int
	Transitions int
	Reduced     bool
	Fingerprint uint64
	NextBase    uint64
}

// Chain is a checkpoint: the manifest at a path, as last read or
// committed, and the files it lists. Open one to resume from it
// (OpenChain); continue one, or start one empty, to write a search's
// barriers (ContinueChain).
type Chain struct {
	ChainHeader
	path   string
	segs   []chainFile // in chain order
	fronts []chainFile // the barrier's frontier files
	// own marks fronts as those of the manifest at path, which the next
	// commit replaces — and so deletes.
	own bool
}

// chainFile is one listed file: its name in the manifest's directory and
// its checksum.
type chainFile struct {
	name string
	sum  uint64
}

// Path is the manifest's path.
func (c *Chain) Path() string { return c.path }

// OpenChain reads the manifest at path. No path, or no file there, is
// nothing to resume: (nil, nil). Refusals wrap ErrCheckpointCorrupt.
func OpenChain(path string) (*Chain, error) {
	if path == "" {
		return nil, nil
	}
	r, _, err := chainFormat.ReadFile(path, kindManifest)
	if errors.Is(err, os.ErrNotExist) {
		return nil, nil
	}
	if err != nil {
		return nil, err
	}
	c := &Chain{path: path, own: true}
	c.Depth = int32(r.Uvarint())
	c.ResultDepth = int(r.Uvarint())
	c.Transitions = int(r.Uvarint())
	c.Reduced = r.Uvarint()&checkpointFlagReduced != 0
	c.Fingerprint = r.Uvarint()
	c.NextBase = r.Uvarint()
	c.segs = readFiles(&r, ".seg")
	c.fronts = readFiles(&r, ".front")
	if err := r.Done(); err != nil {
		return nil, err
	}
	seen := map[string]bool{}
	for _, f := range append(slices.Clone(c.segs), c.fronts...) {
		if seen[f.name] {
			return nil, fmt.Errorf("%w: %s listed twice", ErrCheckpointCorrupt, f.name)
		}
		seen[f.name] = true
	}
	return c, nil
}

// readFiles reads a manifest's list of file names and checksums. A name
// is a plain file name in the manifest's directory with the kind's
// suffix, so a manifest can never make a reader — or a conclusive
// search's cleanup — touch a file elsewhere.
func readFiles(r *codec.Reader, suffix string) []chainFile {
	out := make([]chainFile, r.Count())
	for i := range out {
		out[i] = chainFile{name: string(r.Bytes()), sum: r.Uvarint()}
		if name := out[i].name; r.Err() == nil && (name != filepath.Base(name) ||
			!strings.HasSuffix(name, suffix) || strings.ContainsAny(name, `/\`)) {
			r.Fail("listed file name %q", name)
		}
	}
	return out
}

// ContinueChain returns the chain a search writes at path: from's, when
// the search resumed from it, else an empty one. A continued chain lists
// from's segments, so it must live in the same directory.
func ContinueChain(path string, from *Chain) (*Chain, error) {
	c := &Chain{path: path}
	if from == nil {
		return c, nil
	}
	a, err1 := filepath.Abs(filepath.Dir(path))
	b, err2 := filepath.Abs(filepath.Dir(from.path))
	if err := errors.Join(err1, err2); err != nil || a != b {
		return nil, fmt.Errorf("mc: a checkpoint resumed from %s continues in its directory, not at %s (%v)", from.path, path, err)
	}
	c.ChainHeader, c.segs = from.ChainHeader, slices.Clone(from.segs)
	if from.path == path {
		c.fronts, c.own = slices.Clone(from.fronts), true
	}
	return c, nil
}

// BarrierFiles names the segment and frontier files a writer adds to the
// chain whose manifest is at manifest, for the barrier whose frontier has
// the given depth: writer -1 is the in-process engine, writer i >= 0 the
// distributed worker of index i.
func BarrierFiles(manifest string, writer int, depth int32) (seg, front string) {
	tag := fmt.Sprintf(".l%d", depth)
	if writer >= 0 {
		tag = fmt.Sprintf(".w%d-l%d", writer, depth)
	}
	return manifest + tag + ".seg", manifest + tag + ".front"
}

// closed reports whether the chain's manifest already closes the barrier
// at depth: there is nothing new to write.
func (c *Chain) closed(depth int32) bool { return len(c.segs) > 0 && c.Depth == depth }

// Commit closes a barrier: one atomic rename of a manifest holding h,
// the chain's segments followed by segs, and fronts as the barrier's
// frontier files. The files named must be written already, next to the
// manifest. Once the manifest is in place, the frontier files of the one
// it replaced are deleted. A failed commit changes nothing.
func (c *Chain) Commit(h ChainHeader, segs, fronts []string) error {
	list := func(to []chainFile, paths []string) ([]chainFile, error) {
		for _, p := range paths {
			if filepath.Dir(p) != filepath.Dir(c.path) {
				return nil, fmt.Errorf("mc: checkpoint: %s is not next to the manifest %s", p, c.path)
			}
			sum, err := chainFormat.Sum(p)
			if err != nil {
				return nil, err
			}
			to = append(to, chainFile{name: filepath.Base(p), sum: sum})
		}
		return to, nil
	}
	newSegs, err := list(slices.Clone(c.segs), segs)
	if err != nil {
		return err
	}
	newFronts, err := list(nil, fronts)
	if err != nil {
		return err
	}
	err = chainFormat.WriteFile(c.path, kindManifest, func(w codec.Writer) {
		w.Uvarint(uint64(uint32(h.Depth)))
		w.Uvarint(uint64(h.ResultDepth))
		w.Uvarint(uint64(h.Transitions))
		flags := uint64(0)
		if h.Reduced {
			flags |= checkpointFlagReduced
		}
		w.Uvarint(flags)
		w.Uvarint(h.Fingerprint)
		w.Uvarint(h.NextBase)
		for _, l := range [][]chainFile{newSegs, newFronts} {
			w.Uvarint(uint64(len(l)))
			for _, f := range l {
				w.Bytes([]byte(f.name))
				w.Uvarint(f.sum)
			}
		}
	})
	if err != nil {
		return err
	}
	if c.own {
		for _, f := range c.fronts {
			if !slices.ContainsFunc(newFronts, func(n chainFile) bool { return n.name == f.name }) {
				os.Remove(filepath.Join(filepath.Dir(c.path), f.name))
			}
		}
	}
	c.ChainHeader, c.segs, c.fronts, c.own = h, newSegs, newFronts, true
	return nil
}

// Remove deletes the manifest and every file it lists.
func (c *Chain) Remove() error {
	var errs []error
	for _, f := range append(slices.Clone(c.segs), c.fronts...) {
		if err := os.Remove(filepath.Join(filepath.Dir(c.path), f.name)); err != nil && !errors.Is(err, os.ErrNotExist) {
			errs = append(errs, err)
		}
	}
	if err := os.Remove(c.path); err != nil && !errors.Is(err, os.ErrNotExist) {
		errs = append(errs, err)
	}
	return errors.Join(errs...)
}

// removeChain deletes the checkpoint at path: the manifest and the files
// it lists, or whatever unreadable file stands there.
func removeChain(path string) error {
	if c, err := OpenChain(path); err == nil && c != nil {
		return c.Remove()
	}
	if err := os.Remove(path); err != nil && !errors.Is(err, os.ErrNotExist) {
		return err
	}
	return nil
}

// Check refuses to resume the chain in a search of the other reduction
// mode, or of a model whose fingerprint differs (when both are known).
func (c *Chain) Check(reduced bool, fingerprint uint64) error {
	if c.Reduced != reduced {
		return fmt.Errorf("mc: checkpoint is from a %s search but this search is %s; match the NoReduce option (-no-reduce) of the original run",
			reductionMode(c.Reduced), reductionMode(reduced))
	}
	if c.Fingerprint != 0 && fingerprint != 0 && c.Fingerprint != fingerprint {
		return fmt.Errorf("%w: checkpoint is from a model with fingerprint %016x but this model's is %016x; match the -nodes/-couplers/-authority and option flags of the original run",
			ErrModelMismatch, c.Fingerprint, fingerprint)
	}
	return nil
}

// open reads listed file f, of the given kind, refusing a file whose
// checksum is not the one the manifest lists.
func (c *Chain) open(f chainFile, kind uint64) (codec.Reader, error) {
	r, sum, err := chainFormat.ReadFile(filepath.Join(filepath.Dir(c.path), f.name), kind)
	if err == nil && sum != f.sum {
		err = fmt.Errorf("%w: not the file the manifest lists", ErrCheckpointCorrupt)
	}
	if err != nil {
		return r, fmt.Errorf("%s: %w", f.name, err)
	}
	return r, nil
}

// FrontierKeys visits the barrier's frontier in key order, with each
// state's claim key and shard.
func (c *Chain) FrontierKeys(visit func(key uint64, shard uint32)) error {
	live, err := c.loadFrontier(allShards)
	for _, le := range live {
		visit(le.key, ShardOf(hashBytes(le.enc)))
	}
	return err
}

// sealedSnap is a checkpoint in memory. Captured from a visited set, it
// is one writer's barrier: the segment since its last successful write
// and its frontier. Loaded from a chain, it is the arenas of the owned
// shards and their frontier states, in key order.
type sealedSnap struct {
	ChainHeader
	shards [numShards]sealedShardSnap
	live   []liveSnapEntry
}

// sealedShardSnap is one shard's arena section: from entries precede it.
// Its bytes are the concatenation of pieces — the arena blocks a capture
// views, or the sections a load read — and restarts are offsets into
// that concatenation.
type sealedShardSnap struct {
	from, count uint32
	restarts    []uint32
	pieces      [][]byte
}

type liveSnapEntry struct {
	enc []byte
	key uint64
	pw  uint64 // parent ref+1; 0 = root
}

// capture snapshots the owned shards' arenas from the marks of the last
// successful write — the segment appended since, as views of the arena
// blocks, restart offsets rebased to it — and frontier's live states, in
// its order, with their keys and parent words.
func (v *visitedSet) capture(owned uint64, frontier []uint32) *sealedSnap {
	s5 := &sealedSnap{live: make([]liveSnapEntry, len(frontier))}
	for i, r := range frontier {
		s5.live[i] = liveSnapEntry{enc: v.bytesOf(r), key: v.keyOf(r), pw: v.parentWordOf(r)}
	}
	for sh := range s5.shards {
		if owned&(1<<sh) == 0 {
			continue
		}
		ss, m := &v.shards[sh].sealed, v.written[sh]
		pieces, restarts := ss.segment(int(m.off), m.nres)
		s5.shards[sh] = sealedShardSnap{from: m.count, count: ss.count - m.count, restarts: restarts, pieces: pieces}
	}
	return s5
}

// segMark is a position in a shard's arena: entries, arena bytes (of its
// logical stream) and restart offsets before it.
type segMark struct{ count, off, nres uint32 }

// markWritten records every shard's arena as written: the next capture's
// segment starts here.
func (v *visitedSet) markWritten() {
	for sh := range v.written {
		ss := &v.shards[sh].sealed
		v.written[sh] = segMark{count: ss.count, off: uint32(ss.size), nres: uint32(len(ss.restarts))}
	}
}

// writeBarrierFiles writes s5's segment and frontier files.
func writeBarrierFiles(seg, front string, s5 *sealedSnap) error {
	err := chainFormat.WriteFile(seg, kindSegment, func(w codec.Writer) {
		for si := range s5.shards {
			sn := &s5.shards[si]
			w.Uvarint(uint64(sn.from))
			w.Uvarint(uint64(sn.count))
			prev := uint32(0)
			for _, r := range sn.restarts {
				w.Uvarint(uint64(r - prev))
				prev = r
			}
			w.Bytes(sn.pieces...)
		}
	})
	if err != nil {
		return err
	}
	return chainFormat.WriteFile(front, kindFrontier, func(w codec.Writer) {
		w.Uvarint(uint64(len(s5.live)))
		for _, le := range s5.live {
			w.Bytes(le.enc)
			w.Uvarint(le.key)
			w.Uvarint(le.pw)
		}
	})
}

// writeBarrier writes s5, a capture of the whole set, as the chain's next
// barrier: its segment and frontier files, then the manifest. A failed
// attempt deletes the files it wrote and leaves the chain as it was.
func (c *Chain) writeBarrier(s5 *sealedSnap) error {
	seg, front := BarrierFiles(c.path, -1, s5.Depth)
	err := writeBarrierFiles(seg, front, s5)
	if err == nil {
		err = c.Commit(s5.ChainHeader, []string{seg}, []string{front})
	}
	if err != nil {
		os.Remove(seg)
		os.Remove(front)
	}
	return err
}

// writeBarrierRetry is writeBarrier retrying transient filesystem
// failures (EINTR, EAGAIN, ENOSPC, ...) with bounded exponential backoff.
// It returns the number of retries alongside the final error, so callers
// can surface "the checkpoint needed retries" or "the checkpoint was
// ultimately dropped" in their stats instead of losing it silently.
func (c *Chain) writeBarrierRetry(s5 *sealedSnap) (int, error) {
	return retry.Do(func() error {
		return c.writeBarrier(s5)
	})
}

// minSealedRecord is the smallest arena record: a one-byte parent word
// and a one-byte encoding length.
const minSealedRecord = 2

// load reads the chain into one snapshot of the shards in owned: each
// segment's sections appended in chain order, then the frontier entries
// of owned shards merged by key. A section must start where its shard's
// arena stands — sections of every shard are counted, owned or not — so
// a manifest that drops, repeats or reorders segments is refused.
// Restart offsets are written relative to the section's own bytes, and a
// section holds the restarts of the ordinals it appends. Arena bytes are
// validated later, by restore's checked decode sweep; this pass only
// enforces structural bounds.
func (c *Chain) load(owned uint64) (*sealedSnap, error) {
	s5 := &sealedSnap{ChainHeader: c.ChainHeader}
	var counts, sizes [numShards]uint64
	for _, f := range c.segs {
		r, err := c.open(f, kindSegment)
		if err != nil {
			return nil, err
		}
		for si := range s5.shards {
			from, cnt := r.Uvarint(), r.Uvarint()
			if r.Err() != nil {
				return nil, fmt.Errorf("%s: %w", f.name, r.Err())
			}
			if cnt > 0 && from != counts[si] {
				return nil, fmt.Errorf("%w: %s: shard %d section starts at entry %d, the chain holds %d",
					ErrCheckpointCorrupt, f.name, si, from, counts[si])
			}
			if from > maxOrdinal || cnt > maxOrdinal-from {
				return nil, fmt.Errorf("%w: sealed shard holds over %d entries", ErrCheckpointCorrupt, maxOrdinal)
			}
			first := (from + sealedRestartEvery - 1) / sealedRestartEvery
			nres := (from+cnt+sealedRestartEvery-1)/sealedRestartEvery - first
			if nres > uint64(r.Len()) {
				return nil, fmt.Errorf("%w: restart count exceeds remaining payload", ErrCheckpointCorrupt)
			}
			sn := &s5.shards[si]
			base, prev := sizes[si], uint64(0)
			restarts := make([]uint32, 0, nres)
			for i := uint64(0); i < nres; i++ {
				prev += r.Uvarint()
				if base+prev > uint64(1)<<32-1 {
					return nil, fmt.Errorf("%w: restart offset overflow", ErrCheckpointCorrupt)
				}
				restarts = append(restarts, uint32(base+prev))
			}
			blob := r.Bytes()
			if r.Err() != nil {
				return nil, fmt.Errorf("%s: %w", f.name, r.Err())
			}
			if nres > 0 && ((from%sealedRestartEvery == 0 && restarts[0] != uint32(base)) || prev >= uint64(len(blob))) {
				return nil, fmt.Errorf("%w: restart offsets out of range", ErrCheckpointCorrupt)
			}
			if cnt == 0 && len(blob) != 0 {
				return nil, fmt.Errorf("%w: empty sealed shard with arena bytes", ErrCheckpointCorrupt)
			}
			if cnt*minSealedRecord > uint64(len(blob)) {
				return nil, fmt.Errorf("%w: %d sealed entries in %d arena bytes", ErrCheckpointCorrupt, cnt, len(blob))
			}
			if cnt == 0 {
				continue
			}
			counts[si] = from + cnt
			if owned&(1<<si) == 0 {
				continue
			}
			sn.count += uint32(cnt)
			sn.restarts = append(sn.restarts, restarts...)
			sn.pieces = append(sn.pieces, blob) // a view of the file
			sizes[si] += uint64(len(blob))
		}
		if err := r.Done(); err != nil {
			return nil, fmt.Errorf("%s: %w", f.name, err)
		}
	}
	live, err := c.loadFrontier(owned)
	if err != nil {
		return nil, err
	}
	s5.live = live
	return s5, nil
}

// loadFrontier reads the barrier's frontier entries of the owned shards,
// in key order.
func (c *Chain) loadFrontier(owned uint64) ([]liveSnapEntry, error) {
	var live []liveSnapEntry
	for _, f := range c.fronts {
		r, err := c.open(f, kindFrontier)
		if err != nil {
			return nil, err
		}
		n := r.Count()
		for i := 0; i < n && r.Err() == nil; i++ {
			le := liveSnapEntry{enc: r.Bytes(), key: r.Uvarint(), pw: r.Uvarint()}
			if r.Err() == nil && le.key > keyMask {
				return nil, fmt.Errorf("%w: %s: live claim key out of range", ErrCheckpointCorrupt, f.name)
			}
			if owned&(1<<ShardOf(hashBytes(le.enc))) != 0 {
				live = append(live, le)
			}
		}
		if err := r.Done(); err != nil {
			return nil, fmt.Errorf("%s: %w", f.name, err)
		}
	}
	slices.SortStableFunc(live, func(a, b liveSnapEntry) int {
		switch {
		case a.key < b.key:
			return -1
		case a.key > b.key:
			return 1
		}
		return 0
	})
	return live, nil
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

// resume restores chain c into an empty set holding the shards in owned
// (allShards for the engine; a distributed worker's own) and returns the
// frontier refs, in key order. With the chain's NextBase they continue
// the interrupted search byte for byte. The next capture's segment starts
// where the chain ends. No chain (a missing manifest) wraps
// os.ErrNotExist.
func (v *visitedSet) resume(c *Chain, owned uint64) ([]uint32, error) {
	if c == nil {
		return nil, fmt.Errorf("mc: checkpoint: %w", os.ErrNotExist)
	}
	s5, err := c.load(owned)
	if err != nil {
		return nil, err
	}
	frontier, err := v.restore(s5, owned)
	if err != nil {
		return nil, err
	}
	v.markWritten()
	return frontier, nil
}

// restore loads a snapshot into an empty set and returns the frontier
// refs.
//
// One checked decode sweep runs over each shard's arena. Every entry
// must hash to the shard it is stored in, that shard must be owned,
// and the entry must appear once: the arena is adopted as blocks that
// view the file's bytes (sealedShard.adopt) and its probe index rebuilt
// as the sweep goes, each entry probed before it is inserted. The index
// replays the writer's growth schedule, so capacities — and resident
// bytes — come out exactly as written. The live tier is then claimed
// with its real keys in frontier order.
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
		if err := ss.adopt(sn.count, sn.pieces, sn.restarts); err != nil {
			return nil, fmt.Errorf("%w: shard %d: restart offsets out of range", ErrCheckpointCorrupt, si)
		}
		d.startAt(ss, 0)
		for d.ord < sn.count {
			ord := d.ord
			if err := d.stepChecked(ss.size); err != nil {
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
		if n := d.unread(); n != 0 {
			return nil, fmt.Errorf("%w: %d trailing arena bytes", ErrCheckpointCorrupt, n)
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
		if le.key >= s5.NextBase {
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
