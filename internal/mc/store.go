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

import "sort"

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

// ExpanderFor returns the model's allocation-free expander when it
// offers one, else an adapter over Model.Successors.
func ExpanderFor(m Model) Expander { return expanderFor(m) }

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
// package comment above). It is NOT safe for concurrent use — a
// distributed worker is single-threaded by design, process-level
// parallelism being the point.
type ShardStore struct {
	v       *visitedSet
	owned   uint64   // bit s set: shard s is this store's
	claimed []uint32 // refs admitted since the last DrainLevel
	pc      probeCounter
}

// NewShardStore returns an empty store for the shards set in owned,
// bounded at maxStates admitted states (<= 0 means the engine's default
// budget).
func NewShardStore(maxStates int, owned uint64) *ShardStore {
	if maxStates <= 0 {
		maxStates = defaultMaxStates
	}
	s := &ShardStore{v: newVisitedSet(maxStates, owned), owned: owned}
	s.v.refsFinal = true
	return s
}

// Claim tries to admit enc under key, recording the global ref parent
// (when hasParent) as the trace parent. levelBase is the lowest key
// minted in the current level, exactly as in the engine: a same-level
// duplicate with a lower key takes over the parent record (min-key
// reduction), an earlier-level duplicate is immutable. The returned ref
// is valid only for ClaimNew.
func (s *ShardStore) Claim(enc []byte, key uint64, parent uint32, hasParent bool, levelBase uint64) (ClaimStatus, uint32) {
	st, ref := s.v.claim(enc, hashBytes(enc), parent, key, hasParent, levelBase, &s.pc)
	if st == ClaimNew {
		s.claimed = append(s.claimed, ref)
	}
	return st, ref
}

// DrainLevel returns the states admitted since the previous drain,
// ordered by their final (post-takeover) claim keys — the worker's
// contribution to the next frontier — plus those keys, aligned.
func (s *ShardStore) DrainLevel() ([]uint32, []uint64) {
	refs := s.claimed
	s.claimed = nil
	sort.Slice(refs, func(i, j int) bool { return s.v.keyOf(refs[i]) < s.v.keyOf(refs[j]) })
	keys := make([]uint64, len(refs))
	for i, r := range refs {
		keys[i] = s.v.keyOf(r)
	}
	return refs, keys
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
// its successors' level has fully drained. The seal runs on one
// goroutine: a distributed search's workers are separate processes that
// already seal their stores concurrently.
func (s *ShardStore) SealLevel(refs []uint32, rewrite ...[]uint32) {
	if len(s.claimed) > 0 {
		rewrite = append(rewrite, s.claimed)
	}
	s.v.seal(1, refs, rewrite...)
}

// AssignRefs returns, aligned with frontier (a new frontier in
// DrainLevel order, after the previous level's SealLevel), each state's
// global ref: makeRef(shard, n+rank), n the shard's arena count and
// rank the state's position among the frontier's states of that shard.
// That is the sealed ordinal the state takes when its level seals, so
// children claim with it as their parent. Call it once per frontier.
func (s *ShardStore) AssignRefs(frontier []uint32) []uint32 {
	var next [numShards]uint32
	for sh := range next {
		next[sh] = s.v.shards[sh].sealed.count
	}
	refs := make([]uint32, len(frontier))
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
