package mc

// Unit tests for the distributed worker's ShardStore: claim semantics
// (min-key takeover within a level, immutability across levels, budget
// refusal), key-ordered level drains, and the delta write/read/merge
// round trips crash recovery depends on.

import (
	"bytes"
	"errors"
	"os"
	"path/filepath"
	"reflect"
	"testing"
)

func TestShardStoreClaimSemantics(t *testing.T) {
	s := NewShardStore(10)

	// First admission.
	st, ref := s.Claim([]byte("a"), 100, nil, false, 100)
	if st != ClaimNew {
		t.Fatalf("first claim: %v, want ClaimNew", st)
	}
	if got := s.KeyOf(ref); got != 100 {
		t.Fatalf("key = %d, want 100", got)
	}

	// Same-level duplicate with a LOWER key takes over the record.
	if st, _ := s.Claim([]byte("a"), 90, []byte("p"), true, 50); st != ClaimDup {
		t.Fatalf("takeover claim: %v, want ClaimDup", st)
	}
	if got := s.KeyOf(ref); got != 90 {
		t.Fatalf("after takeover key = %d, want 90", got)
	}
	if p, has, found := s.ParentOf([]byte("a")); !found || !has || p != "p" {
		t.Fatalf("after takeover parent = (%q,%v,%v), want (p,true,true)", p, has, found)
	}

	// Same-level duplicate with a HIGHER key does not.
	if st, _ := s.Claim([]byte("a"), 95, []byte("q"), true, 50); st != ClaimDup {
		t.Fatal("higher-key dup should be ClaimDup")
	}
	if got := s.KeyOf(ref); got != 90 {
		t.Fatalf("higher-key dup moved the key to %d", got)
	}

	// An earlier-level record is immutable: levelBase above the stored
	// key marks it as prior-level.
	if st, _ := s.Claim([]byte("a"), 10, []byte("r"), true, 200); st != ClaimDup {
		t.Fatal("prior-level dup should be ClaimDup")
	}
	if got := s.KeyOf(ref); got != 90 {
		t.Fatalf("prior-level dup rewrote the key to %d", got)
	}

	if got := s.Count(); got != 1 {
		t.Fatalf("count = %d, want 1", got)
	}
}

func TestShardStoreClaimFull(t *testing.T) {
	s := NewShardStore(2)
	s.Claim([]byte("a"), 1, nil, false, 1)
	s.Claim([]byte("b"), 2, nil, false, 1)
	if st, _ := s.Claim([]byte("c"), 3, nil, false, 1); st != ClaimFull {
		t.Fatalf("over-budget claim: %v, want ClaimFull", st)
	}
	// A duplicate of an admitted state is still reported as such, not as
	// budget exhaustion.
	if st, _ := s.Claim([]byte("a"), 1, nil, false, 1); st != ClaimDup {
		t.Fatal("dup after full should be ClaimDup")
	}
	if got := s.Count(); got != 2 {
		t.Fatalf("count = %d, want 2", got)
	}
}

func TestShardStoreDrainLevelKeyOrder(t *testing.T) {
	s := NewShardStore(0)
	// Admit out of key order; a takeover lowers one key after admission.
	s.Claim([]byte("x"), 300, nil, false, 100)
	s.Claim([]byte("y"), 100, nil, false, 100)
	s.Claim([]byte("z"), 200, nil, false, 100)
	s.Claim([]byte("x"), 150, nil, false, 100) // takeover: 300 → 150

	refs, keys := s.DrainLevel()
	if !reflect.DeepEqual(keys, []uint64{100, 150, 200}) {
		t.Fatalf("drain keys = %v, want [100 150 200]", keys)
	}
	wantStates := []string{"y", "x", "z"}
	for i, r := range refs {
		if got := string(s.BytesOf(r)); got != wantStates[i] {
			t.Fatalf("drain[%d] = %q, want %q", i, got, wantStates[i])
		}
	}
	// The drain is consumed.
	if refs, _ := s.DrainLevel(); len(refs) != 0 {
		t.Fatalf("second drain returned %d refs", len(refs))
	}
}

// deltaOf writes s's delta for levelRefs and frontier through WriteDelta
// and reads it back through ReadCheckpoint, returning the snapshot and
// the file bytes.
func deltaOf(t *testing.T, s *ShardStore, depth int32, reduced bool, fp uint64, levelRefs, frontier []uint32) (*Checkpoint, []byte) {
	t.Helper()
	path := filepath.Join(t.TempDir(), "delta")
	if err := s.WriteDelta(path, depth, reduced, fp, levelRefs, frontier); err != nil {
		t.Fatalf("write delta: %v", err)
	}
	data, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	cp, err := ReadCheckpoint(path)
	if err != nil {
		t.Fatalf("read delta: %v", err)
	}
	return cp, data
}

func TestShardStoreSnapshotRestoreRoundTrip(t *testing.T) {
	s := NewShardStore(0)
	s.Claim([]byte("root"), 1, nil, false, 1)
	s.Claim([]byte("kid1"), 10, []byte("root"), true, 10)
	s.Claim([]byte("kid2"), 11, []byte("root"), true, 10)
	frontier, _ := s.DrainLevel()

	cp, _ := deltaOf(t, s, 3, true, 0xfeed, frontier, frontier)
	if cp.Depth != 3 || !cp.Reduced || cp.Fingerprint != 0xfeed {
		t.Fatalf("delta header %+v", cp)
	}

	r := NewShardStore(0)
	restored, err := r.Merge(cp)
	if err != nil {
		t.Fatalf("merge: %v", err)
	}
	if len(restored) != len(frontier) {
		t.Fatalf("restored frontier %d refs, want %d", len(restored), len(frontier))
	}
	for i := range frontier {
		want := string(s.BytesOf(frontier[i]))
		if got := string(r.BytesOf(restored[i])); got != want {
			t.Fatalf("frontier[%d] = %q, want %q", i, got, want)
		}
	}
	if r.Count() != s.Count() {
		t.Fatalf("restored count %d, want %d", r.Count(), s.Count())
	}
	if p, has, found := r.ParentOf([]byte("kid2")); !found || !has || p != "root" {
		t.Fatalf("restored parent of kid2 = (%q,%v,%v)", p, has, found)
	}
	if _, has, found := r.ParentOf([]byte("root")); !found || has {
		t.Fatalf("restored root should be parentless (has=%v found=%v)", has, found)
	}

	// The same delta cannot load twice: its states now overlap the store.
	if _, err := r.Merge(cp); !errors.Is(err, ErrCheckpointCorrupt) {
		t.Fatalf("second merge into the same store: %v, want ErrCheckpointCorrupt", err)
	}
}

// TestShardStoreSnapshotCanonical: delta bytes depend on the level's
// keys, not on the order its states were admitted in.
func TestShardStoreSnapshotCanonical(t *testing.T) {
	a := NewShardStore(0)
	a.Claim([]byte("m"), 5, nil, false, 5)
	a.Claim([]byte("n"), 6, nil, false, 5)
	b := NewShardStore(0)
	b.Claim([]byte("n"), 6, nil, false, 5)
	b.Claim([]byte("m"), 5, nil, false, 5)
	fa, _ := a.DrainLevel()
	fb, _ := b.DrainLevel()
	_, da := deltaOf(t, a, 1, false, 0, fa, fa)
	_, db := deltaOf(t, b, 1, false, 0, fb, fb)
	if !bytes.Equal(da, db) {
		t.Fatal("deltas differ under admission order")
	}
}

func TestShardStoreMergeDisjointAndOverlap(t *testing.T) {
	// A survivor holding its own shard absorbs a dead worker's delta.
	dead := NewShardStore(0)
	dead.Claim([]byte("d1"), 7, nil, false, 7)
	dead.Claim([]byte("d2"), 8, []byte("d1"), true, 7)
	df, _ := dead.DrainLevel()
	cp, _ := deltaOf(t, dead, 2, false, 0, df, df)

	surv := NewShardStore(0)
	surv.Claim([]byte("s1"), 9, nil, false, 9)

	merged, err := surv.Merge(cp)
	if err != nil {
		t.Fatalf("merge: %v", err)
	}
	if len(merged) != 2 || surv.Count() != 3 {
		t.Fatalf("merge frontier %d refs, count %d; want 2 and 3", len(merged), surv.Count())
	}
	if p, has, _ := surv.ParentOf([]byte("d2")); !has || p != "d1" {
		t.Fatalf("merged parent of d2 = (%q,%v)", p, has)
	}

	// Overlapping states mean the snapshot and the store disagree about
	// shard ownership — corrupt, not mergeable.
	if _, err := surv.Merge(cp); !errors.Is(err, ErrCheckpointCorrupt) {
		t.Fatalf("overlapping merge: %v, want ErrCheckpointCorrupt", err)
	}
}

func TestShardStoreMergeOverBudget(t *testing.T) {
	dead := NewShardStore(0)
	dead.Claim([]byte("d1"), 1, nil, false, 1)
	dead.Claim([]byte("d2"), 2, nil, false, 1)
	df, _ := dead.DrainLevel()
	cp, _ := deltaOf(t, dead, 1, false, 0, df, df)

	surv := NewShardStore(3)
	surv.Claim([]byte("s1"), 3, nil, false, 1)
	surv.Claim([]byte("s2"), 4, nil, false, 1)
	if _, err := surv.Merge(cp); !errors.Is(err, ErrStateLimit) {
		t.Fatalf("over-budget merge: %v, want ErrStateLimit", err)
	}
}

// TestShardStoreRestoreOverBudget: rebuilding a worker from a delta that
// holds more states than its budget fails with ErrStateLimit, whether
// the store seals or not.
func TestShardStoreRestoreOverBudget(t *testing.T) {
	big := NewShardStore(0)
	big.Claim([]byte("a"), 1, nil, false, 1)
	big.Claim([]byte("b"), 2, nil, false, 1)
	big.Claim([]byte("c"), 3, nil, false, 1)
	f, _ := big.DrainLevel()
	cp, _ := deltaOf(t, big, 1, false, 0, f, f)

	if _, err := NewShardStore(2).Merge(cp); !errors.Is(err, ErrStateLimit) {
		t.Fatalf("over-budget restore: %v, want ErrStateLimit", err)
	}
	if _, err := NewShardStore(2).MergeSealed(cp); !errors.Is(err, ErrStateLimit) {
		t.Fatalf("over-budget sealed restore: %v, want ErrStateLimit", err)
	}
}
