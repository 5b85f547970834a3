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
// The one representation difference from the engine's visitedSet: an
// entry's parent field here is an intern-table index of the parent's
// *encoding*, not a slot ref. A parent may live on another worker, so a
// ref into the local log cannot name it — but its encoding can, and the
// intern table dedupes the copies (a state's children share one parent
// entry). That makes every worker's store self-contained: it snapshots
// to the ordinary checkpoint-v4 format (parent encodings are exactly
// what the format stores) and restores on a fresh process with nothing
// but the file, which is what crash recovery needs.

import (
	"fmt"
	"sort"
)

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

// ShardStore is a worker-owned slice of the visited set, with parents
// stored as interned encodings (see the package comment above). It is
// NOT safe for concurrent use — a distributed worker is single-threaded
// by design, process-level parallelism being the point.
type ShardStore struct {
	v       *visitedSet
	claimed []uint32 // refs admitted since the last DrainLevel
	pc      probeCounter

	// One-entry parent-intern cache: successive claims overwhelmingly
	// share a parent (a mesh batch group is one parent's successors),
	// so remembering the last interned encoding turns the per-claim
	// intern-map lookup into a short byte compare. lastParent is the
	// table's canonical slab-backed string, so the compare needs no
	// copy and the reference stays valid forever.
	lastParent string
	lastIdx    uint32
	haveLast   bool
}

// NewShardStore returns an empty store bounded at maxStates admitted
// states (<= 0 means the engine's default budget).
func NewShardStore(maxStates int) *ShardStore {
	if maxStates <= 0 {
		maxStates = defaultMaxStates
	}
	s := &ShardStore{v: newVisitedSet(maxStates)}
	// Parents here are intern-table indexes, not refs: the sealed tier
	// must store them as fixed-width words (their values depend on mesh
	// arrival order, so delta-coding them would make arena *sizes* racy)
	// and must never rewrite them at a seal.
	s.v.parentIsRef = false
	return s
}

// Claim tries to admit enc under key, recording parentEnc (when
// hasParent) as the trace parent. levelBase is the lowest key minted in
// the current level, exactly as in the engine: a same-level duplicate
// with a lower key takes over the parent record (min-key reduction),
// an earlier-level duplicate is immutable. The returned ref is valid
// only for ClaimNew.
func (s *ShardStore) Claim(enc []byte, key uint64, parentEnc []byte, hasParent bool, levelBase uint64) (ClaimStatus, uint32) {
	parent := uint32(0)
	if hasParent {
		if s.haveLast && string(parentEnc) == s.lastParent {
			parent = s.lastIdx
		} else {
			idx, canon, added := s.v.overflow.intern(parentEnc)
			if added > 0 {
				s.v.resident.Add(added)
				s.v.bumpPeak()
			}
			parent = idx
			s.lastParent, s.lastIdx, s.haveLast = canon, idx, true
		}
	}
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

// SealLevel migrates refs — a fully-expanded level's states, in the
// order DrainLevel returned them (deterministic final-key order, so
// every worker count builds identical arenas) — into the sealed tier,
// and rewrites the live ref arrays passed as rewrite (the worker's
// current frontier, typically) plus any refs claimed since the last
// drain to the post-seal ordinal space. Must only be called at a level
// barrier, after the sealed level can no longer be re-keyed: its
// successors' level has fully drained. The seal runs on one goroutine:
// a distributed search's workers are separate processes that already
// seal their stores concurrently.
func (s *ShardStore) SealLevel(refs []uint32, rewrite ...[]uint32) {
	if len(s.claimed) > 0 {
		rewrite = append(rewrite, s.claimed)
	}
	s.v.seal(1, refs, rewrite...)
}

// KeyOf returns the state's current (winning) claim key.
func (s *ShardStore) KeyOf(ref uint32) uint64 { return s.v.keyOf(ref) }

// ParentOf resolves a state's trace parent by encoding. found reports
// whether enc is admitted at all; hasParent distinguishes roots. Works
// for both tiers — trace queries reach arbitrarily old levels.
func (s *ShardStore) ParentOf(enc []byte) (parent State, hasParent, found bool) {
	ref, ok := s.v.find(enc, hashBytes(enc))
	if !ok {
		return "", false, false
	}
	ps, has := s.parentStringOf(ref)
	if !has {
		return "", false, true
	}
	return State(ps), true, true
}

// Count returns the number of admitted states.
func (s *ShardStore) Count() int64 { return s.v.count.Load() }

// Resident returns the store's exact resident byte footprint.
func (s *ShardStore) Resident() int64 { return s.v.resident.Load() }

// Snapshot captures the store as an ordinary checkpoint: every admitted
// state with its parent encoding, plus frontier (the refs of the level
// just drained, in key order) so a restored worker can re-expand the
// in-flight level. Entries are state-sorted, so snapshot bytes are
// canonical.
func (s *ShardStore) Snapshot(depth int32, reduced bool, fingerprint uint64, frontier []uint32) *Checkpoint {
	v := s.v
	cp := &Checkpoint{
		Depth:       depth,
		Reduced:     reduced,
		Fingerprint: fingerprint,
		Frontier:    make([]State, len(frontier)),
		Visited:     make([]VisitedEntry, 0, v.count.Load()),
	}
	for i, ref := range frontier {
		cp.Frontier[i] = v.stateOf(ref)
	}
	for si := range v.shards {
		sh := &v.shards[si]
		for o := uint32(0); o < sh.ordCount; o++ {
			ref := makeRef(uint32(si), o)
			e := VisitedEntry{State: v.stateOf(ref)}
			if ps, has := s.parentStringOf(ref); has {
				e.Parent = State(ps)
				e.HasParent = true
			}
			cp.Visited = append(cp.Visited, e)
		}
	}
	sort.Slice(cp.Visited, func(i, j int) bool { return cp.Visited[i].State < cp.Visited[j].State })
	return cp
}

// WriteDelta atomically writes a per-level delta snapshot: a
// checkpoint-v4 file holding ONLY the states of levelRefs (the refs the
// last DrainLevel returned) plus the worker's complete current
// frontier. A worker's chain of delta files w-l0..lK therefore covers
// exactly its visited set through level K, and each file is readable by
// the ordinary ReadCheckpoint — restore replays the chain through
// Merge. Unlike Snapshot, this streams straight from the entry log with
// no per-state materialization or re-sorting, so barrier cost is
// O(level), not O(visited) — and not O(level·log level) either.
//
// Entries keep levelRefs' order: DrainLevel's final-claim-key order,
// which the min-key reduction makes deterministic for a deterministic
// level (arrival order of mesh frames never reaches it). Delta bytes
// are therefore still run-to-run identical, just not state-sorted the
// way full Snapshots are; readers (Restore/Merge) are order-blind.
func (s *ShardStore) WriteDelta(path string, depth int32, reduced bool, fingerprint uint64, levelRefs, frontier []uint32) error {
	v := s.v
	refs := levelRefs
	return writeCheckpointFile(path, checkpointVersion, func(w *cpWriter) {
		w.uvarint(uint64(uint32(depth)))
		w.uvarint(0) // ResultDepth: deltas never carry a verdict
		w.uvarint(0) // Transitions: priced by the coordinator's ledger
		flags := uint64(0)
		if reduced {
			flags |= checkpointFlagReduced
		}
		w.uvarint(flags)
		w.uvarint(fingerprint)
		w.uvarint(uint64(len(frontier)))
		for _, r := range frontier {
			w.bstr(v.bytesOf(r))
		}
		w.uvarint(uint64(len(refs)))
		for _, r := range refs {
			w.bstr(v.bytesOf(r))
			pb, has := s.parentStringOf(r)
			w.sstr(pb)
			hp := byte(0)
			if has {
				hp = 1
			}
			w.byte1(hp)
		}
	})
}

// parentStringOf resolves an admitted state's interned parent encoding
// without copying it. The parent word is internIdx<<1 | hasParent in
// both tiers (parentIsRef == false here).
func (s *ShardStore) parentStringOf(ref uint32) (string, bool) {
	pw := s.v.parentWordOf(ref)
	if pw&1 == 0 {
		return "", false
	}
	return s.v.overflow.lookup(uint32(pw >> 1)), true
}

// Restore loads a snapshot into an empty store and returns the saved
// frontier refs in stored (key) order. Restored entries claim with key
// 0, so any in-flight level's base orders strictly past them.
func (s *ShardStore) Restore(cp *Checkpoint) ([]uint32, error) {
	v := s.v
	if v.count.Load() != 0 {
		return nil, fmt.Errorf("mc: ShardStore.Restore on a non-empty store")
	}
	if int64(len(cp.Visited)) > v.max {
		return nil, fmt.Errorf("mc: snapshot holds %d states, over the %d-state budget: %w",
			len(cp.Visited), v.max, ErrStateLimit)
	}
	for _, e := range cp.Visited {
		parent := uint32(0)
		if e.HasParent {
			idx, _, added := v.overflow.intern([]byte(e.Parent))
			if added > 0 {
				v.resident.Add(added)
			}
			parent = idx
		}
		enc := []byte(e.State)
		st, _ := v.claim(enc, hashBytes(enc), parent, 0, e.HasParent, 1, &s.pc)
		if st != ClaimNew {
			return nil, fmt.Errorf("%w: duplicate visited state", ErrCheckpointCorrupt)
		}
	}
	v.bumpPeak()
	frontier := make([]uint32, len(cp.Frontier))
	for i, st := range cp.Frontier {
		enc := []byte(st)
		ref, ok := v.find(enc, hashBytes(enc))
		if !ok {
			return nil, fmt.Errorf("%w: frontier state missing from visited set", ErrCheckpointCorrupt)
		}
		frontier[i] = ref
	}
	s.claimed = nil
	return frontier, nil
}

// Merge loads one delta snapshot's states into a store — crash
// recovery rebuilds a respawned worker by merging its delta chain in
// level order. The incoming states must be disjoint from the store's
// current contents.
func (s *ShardStore) Merge(cp *Checkpoint) ([]uint32, error) {
	if _, err := s.mergeClaims(cp); err != nil {
		return nil, err
	}
	return s.frontierRefs(cp)
}

// MergeSealed is Merge for a sealed-tier store: the snapshot's visited
// states are claimed and then migrated straight to the sealed tier.
// Restored entries claim with key 0 — below every level base a running
// search can mint — so they can never be re-keyed and owe no live
// residency. The seal compacts the store's surviving live entries, so
// every ref array the caller holds across the call must be passed as
// rewrite (the store's own pending-drain list is rewritten implicitly).
// The returned frontier refs address the sealed tier and remain valid
// inputs to BytesOf and expansion.
func (s *ShardStore) MergeSealed(cp *Checkpoint, rewrite ...[]uint32) ([]uint32, error) {
	refs, err := s.mergeClaims(cp)
	if err != nil {
		return nil, err
	}
	if len(refs) > 0 {
		s.SealLevel(refs, rewrite...)
	}
	return s.frontierRefs(cp)
}

// mergeClaims claims every visited entry of the snapshot, returning the
// admitted refs in snapshot order.
func (s *ShardStore) mergeClaims(cp *Checkpoint) ([]uint32, error) {
	v := s.v
	refs := make([]uint32, 0, len(cp.Visited))
	for _, e := range cp.Visited {
		parent := uint32(0)
		if e.HasParent {
			idx, _, added := v.overflow.intern([]byte(e.Parent))
			if added > 0 {
				v.resident.Add(added)
			}
			parent = idx
		}
		enc := []byte(e.State)
		st, ref := v.claim(enc, hashBytes(enc), parent, 0, e.HasParent, 1, &s.pc)
		switch st {
		case ClaimNew:
			refs = append(refs, ref)
		case ClaimFull:
			return nil, fmt.Errorf("mc: merge over the %d-state budget: %w", v.max, ErrStateLimit)
		default:
			return nil, fmt.Errorf("%w: merged snapshot overlaps the store", ErrCheckpointCorrupt)
		}
	}
	v.bumpPeak()
	return refs, nil
}

// frontierRefs resolves the snapshot's frontier states to refs in the
// store's current ordinal space.
func (s *ShardStore) frontierRefs(cp *Checkpoint) ([]uint32, error) {
	v := s.v
	frontier := make([]uint32, len(cp.Frontier))
	for i, st := range cp.Frontier {
		enc := []byte(st)
		ref, ok := v.find(enc, hashBytes(enc))
		if !ok {
			return nil, fmt.Errorf("%w: frontier state missing from visited set", ErrCheckpointCorrupt)
		}
		frontier[i] = ref
	}
	return frontier, nil
}
