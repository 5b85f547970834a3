package mc

// The sealed twin: the sealed tier a sealing engine holds at a level
// boundary, rebuilt from an unsealed set without going through seal.
// The unsealed search is the oracle the sealed tier is checked against
// (SealedTwinLevels in export_test.go, TestSealedTwinEveryLevel).

import (
	"cmp"
	"slices"
)

// sealedTwin fills shards with the sealed tier a sealing engine would
// hold at this boundary, for a set that seals nothing: every entry
// outside the frontier, per shard in key order, with parent refs
// remapped to their positions there. Keys rise across levels, so key
// order is the order the level-by-level seals append in; equal keys
// keep ordinal order. It returns the remap from a live ref to its ref
// in the twin tier.
func (v *visitedSet) sealedTwin(frontier []uint32, shards *[numShards]sealedShardSnap) func(uint32) uint32 {
	// The frontier is in key order and holds exactly the keys at or above
	// its first one.
	split := uint64(keyMask) + 1
	if len(frontier) > 0 {
		split = v.keyOf(frontier[0])
	}
	var order [numShards][]keyedRef
	var rank [numShards][]uint32
	for si := range v.shards {
		n := v.shards[si].ordCount
		for o := uint32(0); o < n; o++ {
			if k := v.keyOf(makeRef(uint32(si), o)); k < split {
				order[si] = append(order[si], keyedRef{key: k, ref: o})
			}
		}
		slices.SortFunc(order[si], func(a, b keyedRef) int {
			return cmp.Or(cmp.Compare(a.key, b.key), cmp.Compare(a.ref, b.ref))
		})
		rank[si] = make([]uint32, n)
		for i, kr := range order[si] {
			rank[si][kr.ref] = uint32(i)
		}
	}
	remap := func(ref uint32) uint32 {
		s := ref & (numShards - 1)
		return makeRef(s, rank[s][ref>>shardBits])
	}
	for si := range order {
		var ss sealedShard
		for _, kr := range order[si] {
			e := v.shards[si].entryAt(kr.ref)
			var pw uint64
			if e.meta&hasParentBit != 0 {
				pw = uint64(remap(e.parent)) + 1
			}
			ss.appendEntry(v.encOfLive(e, e.meta), pw)
		}
		shards[si] = sealedShardSnap{count: ss.count, restarts: ss.restarts, blob: ss.blob}
	}
	return remap
}
