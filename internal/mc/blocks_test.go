package mc

// Tests for the storage the visited set keeps across levels: sealed
// arenas built in blocks (with the block cap shrunk until blocks split
// on most restart groups), and the entry chunks and probe indexes it
// reuses instead of allocating.

import (
	"bytes"
	"fmt"
	"path/filepath"
	"testing"
)

// smallBlockCaps are block caps that split arenas on most restart
// groups: 24 bytes holds at most a group's first record or two, so a
// group grows its block in place; 96 bytes holds a group or so, so
// groups also move out of a block another group started.
var smallBlockCaps = []int{24, 96}

// blockSplit counts the blocks and restart groups of v's sealed tier.
func blockSplit(v *visitedSet) (blocks, groups int) {
	for s := range v.shards {
		blocks += len(v.shards[s].sealed.blocks)
		groups += len(v.shards[s].sealed.restarts)
	}
	return blocks, groups
}

// TestArenaBlockEdges runs the sealed tier's round trips with arena
// blocks capped small: the seal migration round trip, the fuzz seeds'
// seal scenarios with every decoder swept over the arenas, and
// checkpoints cut, written and resumed. Chain bytes must be identical to
// the default cap's, and a chain resumes to the clean result whichever
// cap wrote it and whichever reads it: blocks are storage only.
func TestArenaBlockEdges(t *testing.T) {
	type cut struct {
		name string
		m    Model
		at   int
	}
	cuts := []cut{
		{"diamond", diamondModel{k: 40}, 10},
		{"wide", collisionModel{n: 3000}, 9},
		{"overflow", overflowModel{n: 40}, 3},
	}
	dir := t.TempDir()
	inv := func(from, to State) bool { return true }
	// Written at the default cap: one checkpoint per cut, and a chain of
	// one segment per level, whose sections end mid-group.
	want := map[string][]byte{}
	for _, c := range cuts {
		want[c.name] = interruptSearch(t, c.m, c.at, filepath.Join(dir, c.name), Options{})
		interruptSearch(t, c.m, c.at, filepath.Join(dir, c.name+".every"), Options{CheckpointEvery: 1})
	}

	for _, blockMax := range smallBlockCaps {
		t.Run(fmt.Sprint(blockMax), func(t *testing.T) {
			defer SetArenaBlockMax(blockMax)()
			t.Run("migration", TestSealMigrationRoundTrip)
			for _, sd := range sealedTierSeeds {
				recs, twins := runSealScenario(t, sd.seed, sd.maxLen, sd.batch, 1, 4)
				checkSealedRecords(t, twins[0], recs, int(max(sd.maxLen, 1)))
				if blocks, groups := blockSplit(twins[0].v); 2*blocks < groups {
					t.Fatalf("seed %d: %d blocks for %d groups, want blocks split on most groups", sd.seed, blocks, groups)
				}
			}
			for _, c := range cuts {
				// The same file name in another directory: a manifest
				// names its segment files.
				path := filepath.Join(t.TempDir(), c.name)
				if got := interruptSearch(t, c.m, c.at, path, Options{}); !bytes.Equal(got, want[c.name]) {
					t.Fatalf("%s: chain differs from the default block cap's", c.name)
				}
				clean, err := CheckTransitionInvariant(c.m, inv, Options{})
				if err != nil {
					t.Fatal(err)
				}
				// This cap's chain resumes at the default cap, and the
				// default cap's many-segment chain at this one.
				resumed, err := resumeAt(c.m, path, arenaBlockMax, blockMax)
				if err != nil || !equalResults(resumed, clean) {
					t.Fatalf("%s: default cap resuming this cap's chain: %+v, %v; want %+v", c.name, resumed, err, clean)
				}
				resumed, err = resumeAt(c.m, filepath.Join(dir, c.name+".every"), blockMax, blockMax)
				if err != nil || !equalResults(resumed, clean) {
					t.Fatalf("%s: resuming the default cap's chain: %+v, %v; want %+v", c.name, resumed, err, clean)
				}
			}
		})
	}
}

// resumeAt resumes the chain at path to the end with arena blocks capped
// at blockMax, restoring the cap to restore afterwards.
func resumeAt(m Model, path string, blockMax, restore int) (Result, error) {
	arenaBlockMax = blockMax
	defer func() { arenaBlockMax = restore }()
	return CheckTransitionInvariant(m, func(from, to State) bool { return true }, Options{ResumePath: path})
}

// TestReusedStorageActsFresh: storage a set reuses — entry chunks kept
// past a seal, slots that compaction left behind, pooled probe indexes —
// behaves exactly like freshly zeroed memory. Three sets run the same
// seal scenario, large enough that shards grow their indexes and entry
// logs and shrink them again: one as is, one whose spare storage is
// filled with ones after every seal, and one whose spare storage is
// dropped after every seal, so that it allocates afresh. All three must
// stay byte-identical in every slot, index cell, arena byte, ref and
// resident count (requireSameSealTwins).
func TestReusedStorageActsFresh(t *testing.T) {
	spare := func(v *visitedSet, visit func(e *entry)) {
		for s := range v.shards {
			sh := &v.shards[s]
			live := int(sh.ordCount - sh.liveBase)
			for c := range sh.chunks {
				p := sh.chunks[c].Load()
				if p == nil {
					break
				}
				for i := range *p {
					if c >= sh.chunksUsed || entryChunkBase*(1<<c-1)+i >= live {
						visit(&(*p)[i])
					}
				}
			}
		}
	}
	var reused bool
	asIs := func(v *visitedSet) {
		for _, free := range v.tables.free {
			reused = reused || len(free) > 0
		}
		for s := range v.shards {
			sh := &v.shards[s]
			reused = reused || sh.chunks[sh.chunksUsed].Load() != nil
		}
	}
	poison := func(v *visitedSet) {
		ones := entry{parent: ^uint32(0), meta: ^uint64(0)}
		for i := range ones.data {
			ones.data[i] = 0xff
		}
		spare(v, func(e *entry) { *e = ones })
		// One cell in eight: a table that was not cleared then still has
		// empty cells past its growth load, so its probes end, wrongly.
		for _, free := range v.tables.free {
			for _, tb := range free {
				for i := 0; i < len(tb); i += 8 {
					tb[i] = ^uint64(0)
				}
			}
		}
	}
	drop := func(v *visitedSet) {
		for s := range v.shards {
			sh := &v.shards[s]
			for c := sh.chunksUsed; c < maxEntryChunks; c++ {
				sh.chunks[c].Store(nil)
			}
		}
		v.tables.free, v.tables.low = [32][][]uint64{}, [32]int{}
	}
	for _, sd := range sealedTierSeeds {
		for _, batch := range []int{700, 3000} {
			twins := []*sealTwin{{workers: 1, afterSeal: asIs}, {workers: 1, afterSeal: poison}, {workers: 4, afterSeal: drop}}
			runSealTwins(t, 20000, sd.seed, sd.maxLen, batch, twins)
		}
	}
	if !reused {
		t.Fatal("no seal left a spare chunk or a pooled index: the scenarios do not exercise reuse")
	}
}
