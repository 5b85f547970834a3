package mc

import (
	"fmt"
	"strings"
	"testing"
)

// TestClaimRoundTrip covers both slot representations: inline (≤ 20
// bytes) and intern-table overflow. A claimed encoding must read back
// bytewise through its ref, re-claiming must dedup (the overflow path
// must intern, not append blindly), and find must resolve to the same
// ref.
func TestClaimRoundTrip(t *testing.T) {
	v := newVisitedSet(100)
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
	v := newVisitedSet(1 << 20)
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
	v := newVisitedSet(100)
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
