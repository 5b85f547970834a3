package mc

// ShardStore: the visited-set slice a distributed worker owns.
//
// The coordinator/worker protocol (internal/dist) partitions the state
// space by the same shard hash the in-process engine uses — shard =
// low bits of the FNV-1a state hash — assigning each worker a subset of
// the 64 shards. A worker's store holds exactly the admitted states of
// its shards, so the union of all worker stores at a level barrier is
// bit-for-bit the single-process visited set at the same barrier, and
// the min-claim-key determinism argument carries across process
// boundaries unchanged.
//
// The representation is the engine's: parents are refs, and sealed
// arenas hold delta-coded parent words. A parent may live on another
// worker, so a worker's refs are global: at each level barrier it gives
// every new frontier state the sealed ordinal that state will take when
// its level seals (AssignRefs). Sealed arenas are in key order per
// shard, and a worker owns whole shards, so that ordinal is the one the
// in-process engine gives the same state — the ref names one state on
// every worker, resolved by its shard's owner (StateOf). Children claim
// with it as their parent, and it is final when claimed: a seal never
// rewrites it.
//
// At every barrier the worker writes its own-shard segment and its
// frontier as files of the run's checkpoint chain (checkpoint.go;
// WriteBarrier): the segment holds the arena bytes appended since its
// last successful write, so barrier cost is proportional to the level,
// not to the visited set. A fresh process rebuilds the store from a
// chain's manifest (Resume), through the engine's one restore call, at
// any worker count: it keeps the segments' sections and the frontier
// entries of its own shards.

// NumShards is the visited-set shard count. The distributed layer
// assigns ownership per shard, so it is the unit of partitioning and of
// crash recovery.
const NumShards = numShards

// HashState returns the engine's state hash (64-bit FNV-1a) for an
// encoding — the hash claim keys, shard selection and probe sequences
// are all derived from.
func HashState(enc []byte) uint64 { return hashBytes(enc) }

// ClaimKey mints the claim key for successor succ of frontier slot
// slot under a level's base — the engine's serial examination order,
// exported so the distributed layer mints identical keys.
func ClaimKey(base uint64, slot, succ int) uint64 { return claimKey(base, slot, succ) }

// ShardOf maps a state hash to its shard index.
func ShardOf(h uint64) uint32 { return uint32(h) & (numShards - 1) }

// RefShard is the shard a global ref (see AssignRefs) addresses.
func RefShard(ref uint32) uint32 { return ref & (numShards - 1) }

// ClaimStatus is the outcome of a visited-set claim: a ShardStore's, the
// engine's own, or a LevelBackend's initial admission.
type ClaimStatus int

const (
	// ClaimNew: the state was admitted for the first time.
	ClaimNew ClaimStatus = iota
	// ClaimDup: the state was already visited (its key may have been
	// lowered by a same-level takeover).
	ClaimDup
	// ClaimFull: the state budget is exhausted; the state was NOT
	// admitted.
	ClaimFull
)

// ShardStore is a worker-owned slice of the visited set (see the
// package comment above). Its methods are called from one goroutine at
// a time; RunLevel expands on several, as the engine does.
type ShardStore struct {
	v     *visitedSet
	owned uint64 // bit s set: shard s is this store's
	sc    *levelScratch
	stInv StateInvariantBytes
	trInv TransitionInvariantBytes
	lvl   levelOut // the last RunLevel's claims, until DrainLevel
	// in books Claim's claims since the last DrainLevel. RunLevel never
	// resets it: a peer's claims of a level may precede its expansion.
	in levelAcc
	pc probeCounter // Claim's; its sealed-tier decoder is reused
	// DrainLevel's keys and AssignRefs' refs, reused level over level;
	// the frontier is double-buffered in sc.spare, as in the engine.
	keys []uint64
	refs []uint32
}

// NewShardStore returns an empty store for the shards set in owned,
// bounded at maxStates admitted states (<= 0 means the engine's default
// budget). It has no level kernel until UseKernel.
func NewShardStore(maxStates int, owned uint64) *ShardStore {
	if maxStates <= 0 {
		maxStates = defaultMaxStates
	}
	s := &ShardStore{v: newVisitedSet(maxStates, owned), owned: owned, sc: &levelScratch{}}
	s.v.refsFinal = true
	return s
}

// UseKernel gives the store its level kernel: a goroutine per emitter,
// each with an expander of m (reduced when rm is non-nil), and the
// search's one invariant, which every claim is checked against.
func (s *ShardStore) UseKernel(m Model, rm ReducibleModel, stInv StateInvariantBytes,
	trInv TransitionInvariantBytes, emit []Emitter) {
	s.sc = newLevelScratch(m, len(emit), rm)
	s.sc.emits = emit
	s.stInv, s.trInv = stInv, trInv
}

// Claim tries to admit enc under key, recording the global ref parent
// (when hasParent) as the trace parent. levelBase is the lowest key
// minted in the current level, exactly as in the engine: a same-level
// duplicate with a lower key takes over the parent record (min-key
// reduction), an earlier-level duplicate is immutable. The returned ref
// is valid only for ClaimNew.
func (s *ShardStore) Claim(enc []byte, key uint64, parent uint32, hasParent bool, levelBase uint64) (ClaimStatus, uint32) {
	st, ref := s.v.claim(enc, hashBytes(enc), parent, key, hasParent, levelBase, &s.pc)
	s.in.book(st, ref, enc, s.stInv)
	return st, ref
}

// RunLevel expands frontier (live refs; global slots and refs aligned)
// through the engine's level kernel under claim-key base base, holding
// own claims for DrainLevel. It returns each state's successor count
// and the lowest-keyed transition violation, if any, with its raw from
// and to encodings, valid until the next RunLevel.
func (s *ShardStore) RunLevel(frontier, slots, parents []uint32, base uint64) (counts []int, viol *Violation, from, to []byte) {
	s.lvl = runLevel(s.sc, s.v, frontier, base, s.stInv, s.trInv, len(s.sc.exps),
		&levelRoute{slots: slots, parents: parents, owned: s.owned})
	// A store checks one invariant; state violations are LevelFaults'.
	if best := reduceViolation(s.v, s.lvl); best != nil && !best.isState {
		return s.lvl.counts, &Violation{Key: best.key}, s.v.bytesOf(best.fromRef), []byte(best.to)
	}
	return s.lvl.counts, nil, nil, nil
}

// LevelFaults returns the states admitted since the last DrainLevel
// that fail the state invariant, and whether a claim found the state
// budget spent. Call it before DrainLevel.
func (s *ShardStore) LevelFaults() (stViol []uint32, full bool) {
	for _, acc := range append(s.lvl.accs[:len(s.lvl.accs):len(s.lvl.accs)], s.in) {
		stViol = append(stViol, acc.stViol...)
		full = full || acc.full
	}
	return stViol, full
}

// DrainLevel returns the states admitted since the previous drain,
// ordered by their final (post-takeover) claim keys — the worker's
// contribution to the next frontier — plus those keys, aligned. The
// frontier is built in the buffer the last SealLevel retired; the keys
// are valid until the next DrainLevel.
func (s *ShardStore) DrainLevel() ([]uint32, []uint64) {
	out := s.lvl
	out.accs = append(out.accs[:len(out.accs):len(out.accs)], s.in)
	out.claimed += len(s.in.claimed)
	refs := nextFrontier(s.v, s.sc, out, s.sc.spare)
	s.sc.spare = nil
	s.keys = s.keys[:0]
	for _, r := range refs {
		s.keys = append(s.keys, s.v.keyOf(r))
	}
	s.lvl = levelOut{}
	s.in = levelAcc{claimed: s.in.claimed[:0], stViol: s.in.stViol[:0]}
	return refs, s.keys
}

// BytesOf returns the encoding of an admitted state. For a live state
// the slice aliases the store's entry log; a sealed state decodes into
// a fresh allocation.
func (s *ShardStore) BytesOf(ref uint32) []byte { return s.v.bytesOf(ref) }

// SealLevel closes a fully-expanded level: refs are its states in the
// order DrainLevel returned them (deterministic final-key order, so
// every worker count builds identical arenas). It migrates them into
// the sealed tier and rewrites the live ref arrays passed as rewrite
// (the worker's current frontier, typically) plus any refs claimed
// since the last drain to the post-seal ordinal space. Must only be
// called at a level barrier, after the level can no longer be re-keyed:
// its successors' level has fully drained. The seal runs on the
// kernel's goroutines, as the engine's runs on its workers. refs is
// retired: the next DrainLevel builds its frontier in it.
func (s *ShardStore) SealLevel(refs []uint32, rewrite ...[]uint32) {
	rewrite = append(rewrite, s.in.claimed, s.in.stViol)
	s.v.seal(len(s.sc.exps), refs, rewrite...)
	s.sc.spare = refs[:0]
}

// AssignRefs returns, aligned with frontier (a new frontier in
// DrainLevel order, after the previous level's SealLevel), each state's
// global ref: makeRef(shard, n+rank), n the shard's arena count and
// rank the state's position among the frontier's states of that shard.
// That is the sealed ordinal the state takes when its level seals, so
// children claim with it as their parent. Call it once per frontier;
// the refs are valid until the next call.
func (s *ShardStore) AssignRefs(frontier []uint32) []uint32 {
	var next [numShards]uint32
	for sh := range next {
		next[sh] = s.v.shards[sh].sealed.count
	}
	if s.refs == nil || cap(s.refs) < len(frontier) {
		s.refs = make([]uint32, len(frontier))
	}
	refs := s.refs[:len(frontier)]
	for i, r := range frontier {
		sh := RefShard(r)
		refs[i] = makeRef(sh, next[sh])
		next[sh]++
	}
	return refs
}

// KeyOf returns the state's current (winning) claim key.
func (s *ShardStore) KeyOf(ref uint32) uint64 { return s.v.keyOf(ref) }

// ParentOf resolves a state's trace parent by encoding: the parent's
// global ref, with hasParent false for a root. found reports whether
// enc is admitted at all. Works for both tiers — trace queries reach
// arbitrarily old levels.
func (s *ShardStore) ParentOf(enc []byte) (parent uint32, hasParent, found bool) {
	ref, ok := s.v.find(enc, hashBytes(enc))
	if !ok {
		return 0, false, false
	}
	parent, hasParent = s.v.parentOf(ref)
	return parent, hasParent, true
}

// StateOf resolves a global ref of a closed level — one whose arena
// entry exists — to the state's encoding and trace parent. found is
// false when the ref names no such state of this store.
func (s *ShardStore) StateOf(ref uint32) (enc []byte, parent uint32, hasParent, found bool) {
	sh, ord := RefShard(ref), ref>>shardBits
	if s.owned&(1<<sh) == 0 || ord >= s.v.shards[sh].sealed.count {
		return nil, 0, false, false
	}
	parent, hasParent = s.v.parentOf(ref)
	return s.v.bytesOf(ref), parent, hasParent, true
}

// Count returns the number of admitted states.
func (s *ShardStore) Count() int64 { return s.v.count.Load() }

// Resident returns the store's exact resident byte footprint: the
// visited set's, as the engine counts it. A store seeds only its own
// shards, so the fleet's footprints sum to the engine's.
func (s *ShardStore) Resident() int64 { return s.v.resident.Load() }

// WriteBarrier writes this store's files of the barrier at level to the
// chain whose manifest is at manifest, as writer index writer (see
// BarrierFiles): the segment of the owned shards' arena bytes appended
// since the last successful write, and frontier — the live states, in
// DrainLevel order — with their keys and parent refs. Work is
// proportional to the level, not to the visited set. A failed write
// changes nothing, so the next call covers its bytes too.
func (s *ShardStore) WriteBarrier(manifest string, writer int, level int32, frontier []uint32) error {
	seg, front := BarrierFiles(manifest, writer, level)
	if err := writeBarrierFiles(seg, front, s.v.capture(s.owned, frontier)); err != nil {
		return err
	}
	s.v.markWritten()
	return nil
}

// Resume rebuilds an empty store from chain c: the owned shards'
// sections of its segments, and its frontier entries of the owned shards
// returned as live refs, in key order (assign their global refs with
// AssignRefs). Refusals wrap ErrCheckpointCorrupt (an inconsistent or
// foreign chain) or ErrStateLimit (over the budget); a missing file
// wraps os.ErrNotExist.
func (s *ShardStore) Resume(c *Chain) ([]uint32, error) { return s.v.resume(c, s.owned) }
