package mc

import (
	"encoding/binary"
	"fmt"
	"math"
	"math/rand"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
)

// TestClaimRoundTrip covers both slot representations: inline (≤ 20
// bytes) and intern-table overflow. A claimed encoding must read back
// bytewise through its ref, re-claiming must dedup (the overflow path
// must intern, not append blindly), and find must resolve to the same
// ref.
func TestClaimRoundTrip(t *testing.T) {
	v := newVisitedSet(100, allShards)
	cases := []string{
		"", "a", "exactly-twenty-byte!", // 0, 1, inlineStateBytes
		strings.Repeat("x", inlineStateBytes+1),
		strings.Repeat("y", 100),
	}
	refs := make([]uint32, len(cases))
	for i, s := range cases {
		enc := []byte(s)
		st, ref := v.claim(enc, hashBytes(enc), 0, uint64(i), false, 0, nil)
		if st != ClaimNew {
			t.Fatalf("claim(%q) = %d, want ClaimNew", s, st)
		}
		refs[i] = ref
		if got := string(v.bytesOf(ref)); got != s {
			t.Errorf("bytesOf(claim(%q)) = %q", s, got)
		}
		if got := v.stateOf(ref); got != State(s) {
			t.Errorf("stateOf(claim(%q)) = %q", s, got)
		}
		if got := v.keyOf(ref); got != uint64(i) {
			t.Errorf("keyOf(claim(%q)) = %d, want %d", s, got, i)
		}
		if st, _ := v.claim(enc, hashBytes(enc), 0, uint64(i), false, 0, nil); st != ClaimDup {
			t.Errorf("second claim(%q) = %d, want ClaimDup", s, st)
		}
		fref, ok := v.find(enc, hashBytes(enc))
		if !ok || fref != ref {
			t.Errorf("find(%q) = (%d, %v), want (%d, true)", s, fref, ok, ref)
		}
	}
	// Distinct overflow encodings must resolve to distinct refs.
	a := []byte(strings.Repeat("a", 30))
	b := []byte(strings.Repeat("b", 30))
	_, ra := v.claim(a, hashBytes(a), 0, 90, false, 0, nil)
	_, rb := v.claim(b, hashBytes(b), 0, 91, false, 0, nil)
	if ra == rb || string(v.bytesOf(ra)) == string(v.bytesOf(rb)) {
		t.Error("distinct overflow encodings claimed to equal slots")
	}
	if got := int(v.count.Load()); got != len(cases)+2 {
		t.Errorf("count = %d, want %d", got, len(cases)+2)
	}
}

// TestWarmClaimDoesNotAllocate is the visited-set half of the
// zero-allocation contract: once a state is in the set, re-claiming it
// (the overwhelmingly common case during exploration — every duplicate
// successor) performs no heap allocation, whether the duplicate resolves
// in the live index or, after a seal, in the sealed tier's decode
// confirm. The duplicates here carry a levelBase above every stored
// key, so they resolve on the lock-free earlier-level path, exactly as
// steady-state exploration does. The bound is generous (0.5 allocs
// averaged over 100 rounds) so GC bookkeeping noise cannot flake CI.
func TestWarmClaimDoesNotAllocate(t *testing.T) {
	v := newVisitedSet(1<<20, allShards)
	var pc probeCounter
	const n = 64
	encs := make([][]byte, n)
	hashes := make([]uint64, n)
	refs := make([]uint32, n)
	for i := range encs {
		encs[i] = []byte(fmt.Sprintf("state-%02d", i))
		hashes[i] = hashBytes(encs[i])
		st, ref := v.claim(encs[i], hashes[i], 0, uint64(i), false, 0, &pc)
		if st != ClaimNew {
			t.Fatalf("initial claim %d = %d, want ClaimNew", i, st)
		}
		refs[i] = ref
	}
	const base = uint64(1) << keySuccBits
	warm := func(tier string) {
		t.Helper()
		avg := testing.AllocsPerRun(100, func() {
			for i := range encs {
				st, _ := v.claim(encs[i], hashes[i], 0, base+uint64(i), true, base, &pc)
				if st != ClaimDup {
					t.Fatal("expected duplicate claim")
				}
			}
		})
		if avg > 0.5 {
			t.Errorf("warm %s claim allocates %.2f times per %d-claim round, want 0", tier, avg, n)
		}
	}
	warm("live")
	v.seal(2, refs)
	if states, _, _ := v.sealedStats(); states != n {
		t.Fatalf("sealed %d states, want %d", states, n)
	}
	warm("sealed")
}

// TestHashInlineDoesNotAllocate: hashing and duplicate-claiming an
// inline-sized encoding — the per-successor hot path — is
// allocation-free.
func TestHashInlineDoesNotAllocate(t *testing.T) {
	v := newVisitedSet(100, allShards)
	enc := []byte("a-20-byte-state-key!")
	if st, _ := v.claim(enc, hashBytes(enc), 0, 0, false, 0, nil); st != ClaimNew {
		t.Fatal("setup claim failed")
	}
	sink := uint64(0)
	avg := testing.AllocsPerRun(100, func() {
		h := hashBytes(enc)
		sink += h
		if _, ok := v.find(enc, h); !ok {
			t.Fatal("claimed state not found")
		}
	})
	if avg > 0.5 {
		t.Errorf("inline hash+find allocates %.2f per run, want 0", avg)
	}
	_ = sink
}

// TestParallelClaimMinKey: eight goroutines claim one shared pool of
// encodings within a single level, every claim with its own key and
// parent, each goroutine in its own shuffled order. Whatever order the
// claims land in, each encoding is admitted exactly once and ends up
// holding the minimum key of all its claims and that claim's parent —
// whether a duplicate resolved on the lock-free early-out (its key at
// or above the entry's) or took the entry over under the shard lock.
func TestParallelClaimMinKey(t *testing.T) {
	const workers, pool = 8, 1024
	const base = uint64(1) << keySuccBits
	type claimArg struct {
		enc    int
		key    uint64
		parent uint32
	}
	encs := make([][]byte, pool)
	for i := range encs {
		encs[i] = []byte(fmt.Sprintf("pool-state-%04d", i))
	}
	rng := rand.New(rand.NewSource(1))
	for round := 0; round < 4; round++ {
		keys := rng.Perm(workers * pool)
		minKey := make([]uint64, pool)
		minParent := make([]uint32, pool)
		for i := range minKey {
			minKey[i] = math.MaxUint64
		}
		orders := make([][]claimArg, workers)
		for w := range orders {
			for i := 0; i < pool; i++ {
				c := w*pool + i
				a := claimArg{enc: i, key: base + uint64(keys[c]), parent: uint32(c)}
				orders[w] = append(orders[w], a)
				if a.key < minKey[i] {
					minKey[i], minParent[i] = a.key, a.parent
				}
			}
			rng.Shuffle(pool, func(x, y int) { orders[w][x], orders[w][y] = orders[w][y], orders[w][x] })
		}

		v := newVisitedSet(pool, allShards)
		var news atomic.Int64
		var wg sync.WaitGroup
		for _, args := range orders {
			wg.Add(1)
			go func(args []claimArg) {
				defer wg.Done()
				var pc probeCounter
				for _, a := range args {
					enc := encs[a.enc]
					switch st, _ := v.claim(enc, hashBytes(enc), a.parent, a.key, true, base, &pc); st {
					case ClaimNew:
						news.Add(1)
					case ClaimFull:
						t.Errorf("round %d: claim of %q refused as over budget", round, enc)
						return
					}
				}
			}(args)
		}
		wg.Wait()
		if got := news.Load(); got != pool {
			t.Fatalf("round %d: %d claims admitted new, want %d", round, got, pool)
		}
		for i, enc := range encs {
			ref, ok := v.find(enc, hashBytes(enc))
			if !ok {
				t.Fatalf("round %d: %q not in the set", round, enc)
			}
			if k := v.keyOf(ref); k != minKey[i] {
				t.Errorf("round %d: %q holds key %d, want the minimum %d", round, enc, k, minKey[i])
			}
			if p, ok := v.parentOf(ref); !ok || p != minParent[i] {
				t.Errorf("round %d: %q holds parent (%d, %v), want (%d, true)", round, enc, p, ok, minParent[i])
			}
		}
	}
}

// BenchmarkClaimLive measures one claim against the live index — the
// engine's per-successor visited-set cost outside the sealed tier —
// for each way a live claim resolves:
//
//   - new: a miss, admitted under the shard lock;
//   - dup-current-early-out: a current-level duplicate whose key is at
//     or above the entry's, resolved lock-free;
//   - dup-current-takeover: a current-level duplicate with a lower key,
//     which takes the entry over under the shard lock;
//   - dup-earlier-level: a duplicate of an entry claimed in an earlier
//     level, resolved lock-free.
//
// The duplicate benches cycle through a pool of 2^14 claimed 16-byte
// encodings; hashing is part of every op, as on the engine's path.
func BenchmarkClaimLive(b *testing.B) {
	const pool = 1 << 14
	const base = uint64(1) << 40 // the current level's lowest key
	encs := make([][]byte, pool)
	for i := range encs {
		encs[i] = make([]byte, 16)
		binary.BigEndian.PutUint64(encs[i][8:], uint64(i)*0x9E3779B97F4A7C15)
	}
	// claimed fills a set with the pool at key base+2^30+i.
	claimed := func(b *testing.B) *visitedSet {
		v := newVisitedSet(pool, allShards)
		for i, enc := range encs {
			if st, _ := v.claim(enc, hashBytes(enc), 0, base+1<<30+uint64(i), true, base, nil); st != ClaimNew {
				b.Fatal("setup claim was not new")
			}
		}
		return v
	}
	dup := func(b *testing.B, v *visitedSet, key func(i int) uint64, levelBase uint64) {
		var pc probeCounter
		b.ReportAllocs()
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			enc := encs[i&(pool-1)]
			if st, _ := v.claim(enc, hashBytes(enc), uint32(i), key(i), true, levelBase, &pc); st != ClaimDup {
				b.Fatal("duplicate claim was not a duplicate")
			}
		}
	}

	b.Run("new", func(b *testing.B) {
		// A fresh set every 2^18 claims keeps the benchmark's memory
		// bounded; the swap is not timed.
		const batch = 1 << 18
		var pc probeCounter
		enc := make([]byte, 16)
		var v *visitedSet
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			if i%batch == 0 {
				b.StopTimer()
				v = newVisitedSet(batch, allShards)
				b.StartTimer()
			}
			binary.BigEndian.PutUint64(enc[8:], uint64(i)*0x9E3779B97F4A7C15)
			if st, _ := v.claim(enc, hashBytes(enc), uint32(i), base+uint64(i), true, base, &pc); st != ClaimNew {
				b.Fatal("fresh claim was not new")
			}
		}
	})
	b.Run("dup-current-early-out", func(b *testing.B) {
		dup(b, claimed(b), func(i int) uint64 { return base + 1<<31 + uint64(i) }, base)
	})
	b.Run("dup-current-takeover", func(b *testing.B) {
		// Every claim lowers its entry's key: the pool's keys start at
		// base+2^30 and each pass over the pool claims below the last.
		dup(b, claimed(b), func(i int) uint64 { return base + 1<<30 - uint64(i) }, base)
	})
	b.Run("dup-earlier-level", func(b *testing.B) {
		dup(b, claimed(b), func(i int) uint64 { return base + 1<<32 + uint64(i) }, base+1<<32)
	})
}
