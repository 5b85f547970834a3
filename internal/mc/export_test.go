package mc

// Hooks for the tests and benchmarks of package mc_test in this
// directory that need the real TTA model: internal/model imports mc, so
// only the external test package can build one, and these wrappers give
// it a reduced search's visited set at a level boundary, the unsealed
// oracle, and the internal tests' synthetic models.

import (
	"bytes"
	"math/rand"
	"slices"
)

// SealFixture is a reduced search's visited set held at one level
// boundary, before that boundary's seal: batch is the level that just
// finished expanding and next the frontier it produced.
type SealFixture struct {
	v           *visitedSet
	batch, next []uint32
}

// sealedSearch runs the engine's level loop (claim, order the next
// frontier, seal) over the quotient of m with the given worker count,
// calling stop at every boundary before its seal. It returns the set
// and the boundary stop accepted, or the finished search's set (every
// level sealed) with nil frontiers if stop never did.
func sealedSearch(m ReducibleModel, workers int, stop func(frontier, next []uint32) bool) (*visitedSet, []uint32, []uint32) {
	v := newVisitedSet(defaultMaxStates, allShards)
	sc := newLevelScratch(m, workers, m)
	var frontier []uint32
	inits := m.Initial()
	for i, s := range inits {
		enc := []byte(s)
		sc.canons[0].Canonicalize(enc)
		if st, ref := v.claim(enc, hashBytes(enc), 0, uint64(i), false, 0, nil); st == ClaimNew {
			frontier = append(frontier, ref)
		}
	}
	base := uint64(len(inits)) << keySuccBits
	for len(frontier) > 0 {
		lvl := runLevel(sc, v, frontier, base, nil, nil, workers, nil)
		base += uint64(len(frontier)) << keySuccBits
		next := nextFrontier(v, sc, lvl, nil)
		if stop(frontier, next) {
			return v, frontier, next
		}
		v.seal(workers, frontier, next)
		frontier = next
	}
	return v, nil, nil
}

// NewSealFixture holds m's reduced search at the boundary after its
// largest level (the first of equal ones), found by a first pass.
func NewSealFixture(m ReducibleModel) *SealFixture {
	largest := 0
	sealedSearch(m, 1, func(frontier, _ []uint32) bool {
		largest = max(largest, len(frontier))
		return false
	})
	v, batch, next := sealedSearch(m, 1, func(frontier, _ []uint32) bool {
		return len(frontier) == largest
	})
	return &SealFixture{v: v, batch: batch, next: next}
}

// BatchLen is the number of states the fixture's boundary seals.
func (f *SealFixture) BatchLen() int { return len(f.batch) }

// Clone deep-copies the fixture so a benchmark can seal it repeatedly.
// The seal scratch keeps its capacities, so the copy's seal grows only
// what the original's would.
func (f *SealFixture) Clone() *SealFixture {
	v := &visitedSet{
		max:          f.v.max,
		refsFinal:    f.v.refsFinal,
		sealDecs:     make([]sealedDecoder, len(f.v.sealDecs)),
		scratchBytes: f.v.scratchBytes,
	}
	v.count.Store(f.v.count.Load())
	v.resident.Store(f.v.resident.Load())
	v.peak.Store(f.v.peak.Load())
	// A seal only reads the intern table, so the copy shares it.
	v.overflow.index, v.overflow.strs, v.overflow.slab = f.v.overflow.index, f.v.overflow.strs, f.v.overflow.slab
	for s := range v.shards {
		src, dst := &f.v.shards[s], &v.shards[s]
		idx := slices.Clone(*src.index.Load())
		dst.index.Store(&idx)
		for c := range src.chunks {
			if p := src.chunks[c].Load(); p != nil {
				chunk := slices.Clone(*p)
				dst.chunks[c].Store(&chunk)
			}
		}
		dst.ordCount, dst.liveBase, dst.chunksUsed = src.ordCount, src.liveBase, src.chunksUsed
		ss := src.sealed
		dst.sealed = sealedShard{
			count:    ss.count,
			blocks:   cloneBlocks(ss.blocks),
			size:     ss.size,
			restarts: slices.Clone(ss.restarts),
			index:    slices.Clone(ss.index),
			lastEnc:  slices.Clone(ss.lastEnc),
			lastPW:   ss.lastPW,
		}
		v.sealGroups[s] = make([]uint32, 0, cap(f.v.sealGroups[s]))
		v.sealRemap[s] = make([]uint32, 0, cap(f.v.sealRemap[s]))
	}
	return &SealFixture{v: v, batch: slices.Clone(f.batch), next: slices.Clone(f.next)}
}

// cloneBlocks deep-copies arena blocks, keeping each one's capacity.
func cloneBlocks(blocks [][]byte) [][]byte {
	out := make([][]byte, len(blocks))
	for i, b := range blocks {
		out[i] = append(make([]byte, 0, cap(b)), b...)
	}
	return out
}

// snap is the whole arena as a checkpoint section: its logical byte
// stream, in the blocks' pieces, and its restart offsets there.
func (ss *sealedShard) snap() sealedShardSnap {
	pieces, restarts := ss.segment(0, 0)
	return sealedShardSnap{count: ss.count, restarts: restarts, pieces: pieces}
}

// Seal runs the fixture's boundary seal with the given worker count.
func (f *SealFixture) Seal(workers int) { f.v.seal(workers, f.batch, f.next) }

// SealedFinder is a finished reduced search, every level sealed, with
// every visited encoding in a fixed shuffled order: the inputs of
// sealed-tier duplicate confirms.
type SealedFinder struct {
	v      *visitedSet
	encs   [][]byte
	hashes []uint64
	dec    sealedDecoder
}

// NewSealedFinder runs m's reduced search to completion with the given
// worker count and collects its encodings.
func NewSealedFinder(m ReducibleModel, workers int) *SealedFinder {
	v, _, _ := sealedSearch(m, workers, func(_, _ []uint32) bool { return false })
	f := &SealedFinder{v: v}
	for s := range v.shards {
		ss := &v.shards[s].sealed
		if ss.count == 0 {
			continue
		}
		f.dec.startAt(ss, 0)
		for f.dec.ord < ss.count {
			f.dec.seat()
			f.dec.step()
			f.encs = append(f.encs, slices.Clone(f.dec.enc))
		}
	}
	rand.New(rand.NewSource(1)).Shuffle(len(f.encs), func(i, j int) { f.encs[i], f.encs[j] = f.encs[j], f.encs[i] })
	for _, enc := range f.encs {
		f.hashes = append(f.hashes, hashBytes(enc))
	}
	return f
}

// Len is the number of sealed states.
func (f *SealedFinder) Len() int { return len(f.encs) }

// Find confirms the i-th encoding against its shard's sealed tier, the
// path a duplicate claim takes once the live index misses.
func (f *SealedFinder) Find(i int) bool {
	h := f.hashes[i]
	_, ok := f.v.shards[h&(numShards-1)].sealed.find(uint32(h>>32), f.encs[i], &f.dec)
	return ok
}

// CheckpointFixture is a reduced search held at the first level
// boundary where it has admitted at least minStates states: the input
// of the checkpoint benchmarks.
type CheckpointFixture struct {
	b        *localBackend
	res      Result
	depth    int32
	nextBase uint64
}

// NewCheckpointFixture runs m's reduced search on one worker until it
// holds at least minStates states at a level boundary, or ends.
func NewCheckpointFixture(m ReducibleModel, minStates int) *CheckpointFixture {
	b := newLocalBackend(m, m, nil, nil, Options{Workers: 1}.withDefaults())
	inits := m.Initial()
	for i, s := range inits {
		enc := []byte(s)
		b.sc.canons[0].Canonicalize(enc)
		b.AdmitInitial(enc, i)
	}
	f := &CheckpointFixture{b: b, res: Result{Reduced: true}}
	f.nextBase = uint64(len(inits)) << keySuccBits
	n, _ := b.NextLevel()
	for n > 0 && b.States() < minStates {
		lvl, _ := b.Expand(f.nextBase)
		for _, c := range lvl.Counts {
			f.res.TransitionsExplored += c
		}
		f.nextBase += uint64(n) << keySuccBits
		n, _ = b.NextLevel()
		f.depth++
	}
	f.res.Depth = int(f.depth)
	return f
}

// States is the number of states the fixture's checkpoint holds.
func (f *CheckpointFixture) States() int { return f.b.States() }

// Write writes the fixture's checkpoint to path the way the engine
// does: capture, then the retrying writer, as a fresh chain.
func (f *CheckpointFixture) Write(path string) error {
	c, err := ContinueChain(path, nil)
	if err != nil {
		return err
	}
	s5 := f.b.v.capture(allShards, f.b.frontier)
	s5.ChainHeader = ChainHeader{Depth: f.depth, ResultDepth: f.res.Depth,
		Transitions: f.res.TransitionsExplored, Reduced: true, NextBase: f.nextBase}
	_, err = c.writeBarrierRetry(s5)
	return err
}

// ResumeCheckpoint reads the engine checkpoint at path and restores it
// into a fresh visited set, returning the restored state count.
func ResumeCheckpoint(path string) (int, error) {
	c, err := OpenChain(path)
	if err != nil {
		return 0, err
	}
	v := newVisitedSet(defaultMaxStates, allShards)
	if _, err := v.resume(c, allShards); err != nil {
		return 0, err
	}
	return int(v.count.Load()), nil
}

// SetArenaBlockMax caps sealed-arena blocks at n bytes, so that blocks
// split on most restart groups, and returns the function that restores
// the cap. Tests that call it must not run in parallel.
func SetArenaBlockMax(n int) (restore func()) {
	old := arenaBlockMax
	arenaBlockMax = n
	return func() { arenaBlockMax = old }
}

// WithNoSeal returns o with the sealed tier off: the unsealed oracle.
func WithNoSeal(o Options) Options {
	o.noSeal = true
	return o
}

// CollisionModel, DiamondModel and EncodeXY expose the internal tests'
// synthetic models (engine_test.go) to package mc_test.
func CollisionModel(n int) Model { return collisionModel{n: n} }
func DiamondModel(k int) Model   { return diamondModel{k: k} }
func EncodeXY(x, y int) State    { return encodeXY(x, y) }

// SealedTwinLevels runs m's reduced search twice in lockstep, sealing
// and unsealed, on the given worker count. At every level boundary,
// after the sealing run's seal, it builds the sealed twin of the
// unsealed set and calls check with the shard whose arena differs from
// the sealing run's (or -1), and whether the live tiers — encodings,
// keys and parent refs through the twin's remap — differ. It returns
// the number of boundaries checked.
func SealedTwinLevels(m ReducibleModel, workers int, check func(level, badShard int, liveDiffers bool)) int {
	type run struct {
		v        *visitedSet
		sc       *levelScratch
		frontier []uint32
	}
	runs := [2]*run{}
	inits := m.Initial()
	for i := range runs {
		r := &run{v: newVisitedSet(defaultMaxStates, allShards), sc: newLevelScratch(m, workers, m)}
		for k, s := range inits {
			enc := []byte(s)
			r.sc.canons[0].Canonicalize(enc)
			if st, ref := r.v.claim(enc, hashBytes(enc), 0, uint64(k), false, 0, nil); st == ClaimNew {
				r.frontier = append(r.frontier, ref)
			}
		}
		runs[i] = r
	}
	sealing, plain := runs[0], runs[1]
	base := uint64(len(inits)) << keySuccBits
	levels := 0
	for len(sealing.frontier) > 0 {
		levelBase := base
		base += uint64(len(sealing.frontier)) << keySuccBits
		for i, r := range runs {
			lvl := runLevel(r.sc, r.v, r.frontier, levelBase, nil, nil, workers, nil)
			next := nextFrontier(r.v, r.sc, lvl, nil)
			if i == 0 {
				r.v.seal(workers, r.frontier, next)
			}
			r.frontier = next
		}
		var twin [numShards]sealedShardSnap
		remap := plain.v.sealedTwin(plain.frontier, &twin)
		bad := -1
		for s := range twin {
			ss := &sealing.v.shards[s].sealed
			got := ss.snap()
			if twin[s].count != got.count || !slices.Equal(twin[s].restarts, got.restarts) ||
				!bytes.Equal(bytes.Join(twin[s].pieces, nil), bytes.Join(got.pieces, nil)) {
				bad = s
				break
			}
		}
		liveDiffers := len(sealing.frontier) != len(plain.frontier)
		for i := 0; !liveDiffers && i < len(plain.frontier); i++ {
			sr, pr := sealing.frontier[i], plain.frontier[i]
			pw := plain.v.parentWordOf(pr)
			if pw != 0 {
				pw = uint64(remap(uint32(pw-1))) + 1
			}
			liveDiffers = !bytes.Equal(sealing.v.bytesOf(sr), plain.v.bytesOf(pr)) ||
				sealing.v.keyOf(sr) != plain.v.keyOf(pr) || sealing.v.parentWordOf(sr) != pw
		}
		levels++
		check(levels, bad, liveDiffers)
	}
	return levels
}
