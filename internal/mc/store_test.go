package mc

// Unit tests for the distributed worker's ShardStore: claim semantics
// (min-key takeover within a level, immutability across levels, budget
// refusal), key-ordered level drains, and the barrier snapshot
// write/restore round trips crash recovery depends on. The snapshot
// tests drive a miniature fleet of stores through the same calls a dist
// worker makes (fleet).

import (
	"bytes"
	"errors"
	"fmt"
	"os"
	"path/filepath"
	"reflect"
	"sort"
	"testing"
)

func TestShardStoreClaimSemantics(t *testing.T) {
	s := NewShardStore(10, allShards)

	// First admission.
	st, ref := s.Claim([]byte("a"), 100, 0, false, 100)
	if st != ClaimNew {
		t.Fatalf("first claim: %v, want ClaimNew", st)
	}
	if got := s.KeyOf(ref); got != 100 {
		t.Fatalf("key = %d, want 100", got)
	}

	// Same-level duplicate with a LOWER key takes over the record.
	if st, _ := s.Claim([]byte("a"), 90, 7, true, 50); st != ClaimDup {
		t.Fatalf("takeover claim: %v, want ClaimDup", st)
	}
	if got := s.KeyOf(ref); got != 90 {
		t.Fatalf("after takeover key = %d, want 90", got)
	}
	if p, has, found := s.ParentOf([]byte("a")); !found || !has || p != 7 {
		t.Fatalf("after takeover parent = (%d,%v,%v), want (7,true,true)", p, has, found)
	}

	// Same-level duplicate with a HIGHER key does not.
	if st, _ := s.Claim([]byte("a"), 95, 8, true, 50); st != ClaimDup {
		t.Fatal("higher-key dup should be ClaimDup")
	}
	if got := s.KeyOf(ref); got != 90 {
		t.Fatalf("higher-key dup moved the key to %d", got)
	}

	// An earlier-level record is immutable: levelBase above the stored
	// key marks it as prior-level.
	if st, _ := s.Claim([]byte("a"), 10, 9, true, 200); st != ClaimDup {
		t.Fatal("prior-level dup should be ClaimDup")
	}
	if got := s.KeyOf(ref); got != 90 {
		t.Fatalf("prior-level dup rewrote the key to %d", got)
	}
	if p, _, _ := s.ParentOf([]byte("a")); p != 7 {
		t.Fatalf("prior-level dup rewrote the parent to %d", p)
	}

	if got := s.Count(); got != 1 {
		t.Fatalf("count = %d, want 1", got)
	}
}

func TestShardStoreClaimFull(t *testing.T) {
	s := NewShardStore(2, allShards)
	s.Claim([]byte("a"), 1, 0, false, 1)
	s.Claim([]byte("b"), 2, 0, false, 1)
	if st, _ := s.Claim([]byte("c"), 3, 0, false, 1); st != ClaimFull {
		t.Fatalf("over-budget claim: %v, want ClaimFull", st)
	}
	// A duplicate of an admitted state is still reported as such, not as
	// budget exhaustion.
	if st, _ := s.Claim([]byte("a"), 1, 0, false, 1); st != ClaimDup {
		t.Fatal("dup after full should be ClaimDup")
	}
	if got := s.Count(); got != 2 {
		t.Fatalf("count = %d, want 2", got)
	}
}

func TestShardStoreDrainLevelKeyOrder(t *testing.T) {
	s := NewShardStore(0, allShards)
	// Admit out of key order; a takeover lowers one key after admission.
	s.Claim([]byte("x"), 300, 0, false, 100)
	s.Claim([]byte("y"), 100, 0, false, 100)
	s.Claim([]byte("z"), 200, 0, false, 100)
	s.Claim([]byte("x"), 150, 0, false, 100) // takeover: 300 → 150

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

// fleet is a miniature distributed search over ShardStores: shard s
// belongs to store s % len(stores), and every level runs the calls a
// dist worker makes, with the coordinator's slot order.
type fleet struct {
	exp      Expander
	dir      string
	stores   []*ShardStore
	frontier [][]uint32 // per store: live refs, DrainLevel order
	refs     [][]uint32 // per store: the frontier's global refs
	keys     [][]uint64 // per store: the frontier's claim keys
	level    int32
	base     uint64 // claim-key base of the level to expand next
	// fail, when set, makes the barrier write of (store, level) fail.
	fail func(store int, level int32) bool
}

func ownedBy(i, n int) uint64 {
	var mask uint64
	for s := i; s < numShards; s += n {
		mask |= 1 << s
	}
	return mask
}

// newFleet admits m's initial states and closes level 0.
func newFleet(t *testing.T, m Model, n int, dir string) *fleet {
	f := &fleet{exp: expanderFor(m), dir: dir,
		frontier: make([][]uint32, n), refs: make([][]uint32, n), keys: make([][]uint64, n)}
	for i := 0; i < n; i++ {
		f.stores = append(f.stores, NewShardStore(0, ownedBy(i, n)))
	}
	inits := m.Initial()
	for i, s := range inits {
		f.owner([]byte(s)).Claim([]byte(s), uint64(i), 0, false, 0)
	}
	f.barrier(t, claimKey(0, len(inits), 0))
	return f
}

func (f *fleet) owner(enc []byte) *ShardStore {
	return f.stores[int(ShardOf(hashBytes(enc)))%len(f.stores)]
}

func (f *fleet) path(store int, level int32) string {
	return filepath.Join(f.dir, fmt.Sprintf("w%d-l%d.mc", store, level))
}

// barrier closes the current level on every store and writes its
// snapshots; next is the claim-key base of the level after it.
func (f *fleet) barrier(t *testing.T, next uint64) {
	t.Helper()
	for i, s := range f.stores {
		frontier, keys := s.DrainLevel()
		s.SealLevel(f.frontier[i], frontier)
		f.frontier[i], f.keys[i] = frontier, keys
		f.refs[i] = s.AssignRefs(frontier)
		path := f.path(i, f.level)
		if f.fail != nil && f.fail(i, f.level) {
			path = filepath.Join(f.dir, "missing", "cp")
		}
		err := s.WriteSnapshot(path, f.level, false, 0, next, frontier)
		if (err != nil) != (f.fail != nil && f.fail(i, f.level)) {
			t.Fatalf("store %d level %d write: %v", i, f.level, err)
		}
	}
	f.base = next
}

// step expands the frontier, slots in global key order.
func (f *fleet) step(t *testing.T) int {
	t.Helper()
	type slot struct {
		key      uint64
		store, i int
	}
	var slots []slot
	for s := range f.stores {
		for i, k := range f.keys[s] {
			slots = append(slots, slot{k, s, i})
		}
	}
	sort.Slice(slots, func(a, b int) bool { return slots[a].key < slots[b].key })
	for n, sl := range slots {
		s := f.stores[sl.store]
		for j, succ := range f.exp.Successors(s.BytesOf(f.frontier[sl.store][sl.i])) {
			f.owner(succ).Claim(succ, claimKey(f.base, n, j), f.refs[sl.store][sl.i], true, f.base)
		}
	}
	f.level++
	f.barrier(t, claimKey(f.base, len(slots), 0))
	return len(slots)
}

func (f *fleet) run(t *testing.T, levels int) {
	t.Helper()
	for l := 0; l < levels; l++ {
		f.step(t)
	}
}

// chain lists a store's barrier files for levels 0..through.
func (f *fleet) chain(store int, through int32) []string {
	var paths []string
	for l := int32(0); l <= through; l++ {
		paths = append(paths, f.path(store, l))
	}
	return paths
}

func readAll(t *testing.T, paths ...string) [][]byte {
	t.Helper()
	var out [][]byte
	for _, p := range paths {
		b, err := os.ReadFile(p)
		if err != nil {
			t.Fatal(err)
		}
		out = append(out, b)
	}
	return out
}

// TestShardStoreSnapshotRestoreRoundTrip: a store restored from its
// barrier files holds what the writer held — count, frontier, and every
// state's trace parent, found by encoding and by global ref — and, run
// on, writes byte-identical files.
func TestShardStoreSnapshotRestoreRoundTrip(t *testing.T) {
	m := diamondModel{k: 14}
	const n, cut = 2, 6
	f := newFleet(t, m, n, t.TempDir())
	f.run(t, cut)
	for i, s := range f.stores {
		r := NewShardStore(0, ownedBy(i, n))
		frontier, err := r.Restore(f.chain(i, cut))
		if err != nil {
			t.Fatalf("store %d: restore: %v", i, err)
		}
		if r.Count() != s.Count() || len(frontier) != len(f.frontier[i]) {
			t.Fatalf("store %d: restored %d states, %d frontier; want %d, %d",
				i, r.Count(), len(frontier), s.Count(), len(f.frontier[i]))
		}
		for j := range frontier {
			if !bytes.Equal(r.BytesOf(frontier[j]), s.BytesOf(f.frontier[i][j])) ||
				r.KeyOf(frontier[j]) != f.keys[i][j] {
				t.Fatalf("store %d: frontier[%d] differs", i, j)
			}
		}
		if refs := r.AssignRefs(frontier); !reflect.DeepEqual(refs, f.refs[i]) {
			t.Fatalf("store %d: restored global refs differ", i)
		}
		for x := 0; x <= m.k; x++ {
			for y := 0; y <= m.k; y++ {
				enc := []byte(encodeXY(x, y))
				if f.owner(enc) != s {
					continue
				}
				p1, h1, ok1 := s.ParentOf(enc)
				p2, h2, ok2 := r.ParentOf(enc)
				if p1 != p2 || h1 != h2 || ok1 != ok2 {
					t.Fatalf("parent of %s: (%d,%v,%v) restored as (%d,%v,%v)",
						enc, p1, h1, ok1, p2, h2, ok2)
				}
				if !h1 {
					continue
				}
				// The global ref resolves, at its shard's owner, to a
				// BFS predecessor.
				pe, _, _, ok := f.stores[int(RefShard(p1))%n].StateOf(p1)
				if px, py := decodeXY(State(pe)); !ok || px+py != x+y-1 {
					t.Fatalf("parent ref %#x of %s resolves to (%q,%v)", p1, enc, pe, ok)
				}
			}
		}
		f.stores[i] = r
		f.frontier[i] = frontier
	}
	// Both fleets, the restored and (in a second run) the original,
	// go on to write the same next files.
	f.run(t, 1)
	g := newFleet(t, m, n, t.TempDir())
	g.run(t, cut+1)
	for i := range f.stores {
		if !reflect.DeepEqual(readAll(t, f.path(i, cut+1)), readAll(t, g.path(i, cut+1))) {
			t.Fatalf("store %d: restored store's next file differs", i)
		}
	}

}

// TestShardStoreSnapshotCanonical: barrier files depend on the level's
// keys, not on the order its states were admitted in.
func TestShardStoreSnapshotCanonical(t *testing.T) {
	dir := t.TempDir()
	write := func(name string, order []string) []byte {
		s := NewShardStore(0, allShards)
		keys := map[string]uint64{"m": 5, "n": 6, "o": 7}
		for _, e := range order {
			s.Claim([]byte(e), keys[e], 0, false, 5)
		}
		frontier, _ := s.DrainLevel()
		s.SealLevel(nil, frontier)
		s.AssignRefs(frontier)
		path := filepath.Join(dir, name)
		if err := s.WriteSnapshot(path, 1, false, 0, 1<<keySuccBits, frontier); err != nil {
			t.Fatal(err)
		}
		// And the next level, sealing the first.
		s.Claim([]byte("p"), 1<<keySuccBits, 0, true, 1<<keySuccBits)
		next, _ := s.DrainLevel()
		s.SealLevel(frontier, next)
		if err := s.WriteSnapshot(path, 2, false, 0, 2<<keySuccBits, next); err != nil {
			t.Fatal(err)
		}
		data, err := os.ReadFile(path)
		if err != nil {
			t.Fatal(err)
		}
		return data
	}
	want := write("a", []string{"m", "n", "o"})
	for i, order := range [][]string{{"o", "n", "m"}, {"n", "o", "m"}} {
		if got := write(fmt.Sprint(i), order); !bytes.Equal(got, want) {
			t.Fatalf("order %v: snapshot bytes differ", order)
		}
	}
}

// TestShardStoreMergeDisjointAndOverlap: a restore concatenates the
// disjoint segments of a store's chain; a chain that repeats a segment
// (its states overlap) or a store fed another store's files is refused
// as corrupt.
func TestShardStoreMergeDisjointAndOverlap(t *testing.T) {
	m := diamondModel{k: 10}
	f := newFleet(t, m, 2, t.TempDir())
	f.run(t, 5)
	r := NewShardStore(0, ownedBy(0, 2))
	if _, err := r.Restore(f.chain(0, 5)); err != nil {
		t.Fatalf("disjoint chain: %v", err)
	}
	if r.Count() != f.stores[0].Count() {
		t.Fatalf("restored %d states, want %d", r.Count(), f.stores[0].Count())
	}
	// Repeat the first file whose segment holds entries.
	rep := int32(1)
	for ; ; rep++ {
		var s5 sealedSnap
		if err := s5.load(f.path(0, rep)); err != nil {
			t.Fatal(err)
		}
		n := uint32(0)
		for _, sn := range s5.shards {
			n += sn.count
		}
		if n > 0 {
			break
		}
	}
	for _, tc := range []struct {
		name  string
		owned uint64
		paths []string
	}{
		{"repeated-segment", ownedBy(0, 2), append(f.chain(0, rep), f.path(0, rep))},
		{"foreign-store", ownedBy(0, 2), f.chain(1, 5)},
	} {
		if _, err := NewShardStore(0, tc.owned).Restore(tc.paths); !errors.Is(err, ErrCheckpointCorrupt) {
			t.Errorf("%s: got %v, want ErrCheckpointCorrupt", tc.name, err)
		}
	}
}

// TestShardStoreMergeOverBudget: a chain whose segments each fit the
// budget but together exceed it is refused with ErrStateLimit.
func TestShardStoreMergeOverBudget(t *testing.T) {
	f := newFleet(t, diamondModel{k: 10}, 1, t.TempDir())
	f.run(t, 6)
	total := int(f.stores[0].Count())
	if _, err := NewShardStore(total-1, allShards).Restore(f.chain(0, 6)); !errors.Is(err, ErrStateLimit) {
		t.Fatalf("over-budget chain: %v, want ErrStateLimit", err)
	}
	if _, err := NewShardStore(total, allShards).Restore(f.chain(0, 6)); err != nil {
		t.Fatalf("chain at the budget: %v", err)
	}
}

// TestShardStoreRestoreOverBudget: rebuilding a store from a snapshot
// that holds more states than its budget fails with ErrStateLimit.
func TestShardStoreRestoreOverBudget(t *testing.T) {
	f := newFleet(t, diamondModel{k: 10}, 1, t.TempDir())
	f.run(t, 3)
	if _, err := NewShardStore(3, allShards).Restore(f.chain(0, 3)); !errors.Is(err, ErrStateLimit) {
		t.Fatalf("over-budget restore: %v, want ErrStateLimit", err)
	}
}

// TestShardStoreSnapshotRepair: a failed barrier write loses nothing —
// the next file's segments reach back to the last good write, so the
// chain without the failed level restores the same store, and later
// files are byte-identical to a run whose writes all succeeded.
func TestShardStoreSnapshotRepair(t *testing.T) {
	m := diamondModel{k: 12}
	f := newFleet(t, m, 2, t.TempDir())
	f.fail = func(store int, level int32) bool { return store == 1 && (level == 2 || level == 3) }
	f.run(t, 6)
	g := newFleet(t, m, 2, t.TempDir())
	g.run(t, 6)
	if !reflect.DeepEqual(readAll(t, f.path(1, 5), f.path(1, 6)), readAll(t, g.path(1, 5), g.path(1, 6))) {
		t.Fatal("files after the repair differ")
	}
	repaired := []string{f.path(1, 0), f.path(1, 1), f.path(1, 4), f.path(1, 5)}
	a := NewShardStore(0, ownedBy(1, 2))
	b := NewShardStore(0, ownedBy(1, 2))
	fa, errA := a.Restore(repaired)
	fb, errB := b.Restore(g.chain(1, 5))
	if errA != nil || errB != nil {
		t.Fatalf("restores: %v / %v", errA, errB)
	}
	if a.Count() != b.Count() || len(fa) != len(fb) {
		t.Fatalf("repaired chain restored %d states, full chain %d", a.Count(), b.Count())
	}
}
