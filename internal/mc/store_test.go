package mc

// Unit tests for the distributed worker's ShardStore: claim semantics
// (min-key takeover within a level, immutability across levels, budget
// refusal), key-ordered level drains, and the barrier-file
// write/restore round trips crash recovery depends on. The checkpoint
// tests drive a miniature fleet of stores through the same calls a dist
// worker and its coordinator make (fleet).

import (
	"bytes"
	"errors"
	"os"
	"path/filepath"
	"reflect"
	"slices"
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
// dist worker makes, with the coordinator's slot order and barrier
// commit to the fleet's checkpoint chain.
type fleet struct {
	exp      Expander
	dir      string
	chain    *Chain
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
func newFleet(t testing.TB, m Model, n int, dir string) *fleet {
	f := &fleet{exp: expanderFor(m), dir: dir, chain: &Chain{path: filepath.Join(dir, "chain.mc")},
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

// files names store's barrier files of level.
func (f *fleet) files(store int, level int32) []string {
	seg, front := BarrierFiles(f.chain.path, store, level)
	return []string{seg, front}
}

// barrier closes the current level on every store, writes their barrier
// files and commits the manifest; next is the claim-key base of the
// level after it. A failed write leaves its files out of the manifest.
func (f *fleet) barrier(t testing.TB, next uint64) {
	t.Helper()
	var segs, fronts []string
	for i, s := range f.stores {
		frontier, keys := s.DrainLevel()
		s.SealLevel(f.frontier[i], frontier)
		f.frontier[i], f.keys[i] = frontier, keys
		f.refs[i] = s.AssignRefs(frontier)
		manifest, fail := f.chain.path, f.fail != nil && f.fail(i, f.level)
		if fail {
			manifest = filepath.Join(f.dir, "missing", "cp")
		}
		if err := s.WriteBarrier(manifest, i, f.level, frontier); (err != nil) != fail {
			t.Fatalf("store %d level %d write: %v", i, f.level, err)
		}
		if !fail {
			files := f.files(i, f.level)
			segs, fronts = append(segs, files[0]), append(fronts, files[1])
		}
	}
	h := ChainHeader{Depth: f.level, ResultDepth: int(f.level), NextBase: next}
	if err := f.chain.Commit(h, segs, fronts); err != nil {
		t.Fatalf("level %d commit: %v", f.level, err)
	}
	f.base = next
}

// step expands the frontier, slots in global key order.
func (f *fleet) step(t testing.TB) int {
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

func (f *fleet) run(t testing.TB, levels int) {
	t.Helper()
	for l := 0; l < levels; l++ {
		f.step(t)
	}
}

// manifestWith writes a manifest named name next to the fleet's chain,
// with its header but the segments segs and frontier files fronts.
func (f *fleet) manifestWith(t testing.TB, name string, segs, fronts []string) *Chain {
	t.Helper()
	c := &Chain{path: filepath.Join(f.dir, name)}
	if err := c.Commit(f.chain.ChainHeader, segs, fronts); err != nil {
		t.Fatal(err)
	}
	return c
}

// paths lists files of the fleet's directory, in order.
func (f *fleet) paths(files []chainFile) []string {
	var out []string
	for _, cf := range files {
		out = append(out, filepath.Join(f.dir, cf.name))
	}
	return out
}

func readAll(t testing.TB, paths ...string) [][]byte {
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

// TestShardStoreSnapshotRestoreRoundTrip: a store restored from the
// fleet's chain holds what the writer held — count, frontier, and every
// state's trace parent, found by encoding and by global ref — and, run
// on, writes byte-identical files.
func TestShardStoreSnapshotRestoreRoundTrip(t *testing.T) {
	m := diamondModel{k: 14}
	const n, cut = 2, 6
	f := newFleet(t, m, n, t.TempDir())
	f.run(t, cut)
	for i, s := range f.stores {
		r := NewShardStore(0, ownedBy(i, n))
		frontier, err := r.Resume(f.chain)
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
		if !reflect.DeepEqual(readAll(t, f.files(i, cut+1)...), readAll(t, g.files(i, cut+1)...)) {
			t.Fatalf("store %d: restored store's next files differ", i)
		}
	}
}

// TestShardStoreSnapshotCanonical: barrier files depend on the level's
// keys, not on the order its states were admitted in.
func TestShardStoreSnapshotCanonical(t *testing.T) {
	write := func(order []string) [][]byte {
		manifest := filepath.Join(t.TempDir(), "chain.mc")
		s := NewShardStore(0, allShards)
		keys := map[string]uint64{"m": 5, "n": 6, "o": 7}
		for _, e := range order {
			s.Claim([]byte(e), keys[e], 0, false, 5)
		}
		frontier, _ := s.DrainLevel()
		s.SealLevel(nil, frontier)
		s.AssignRefs(frontier)
		if err := s.WriteBarrier(manifest, 0, 1, frontier); err != nil {
			t.Fatal(err)
		}
		// And the next level, sealing the first.
		s.Claim([]byte("p"), 1<<keySuccBits, 0, true, 1<<keySuccBits)
		next, _ := s.DrainLevel()
		s.SealLevel(frontier, next)
		if err := s.WriteBarrier(manifest, 0, 2, next); err != nil {
			t.Fatal(err)
		}
		seg1, front1 := BarrierFiles(manifest, 0, 1)
		seg2, front2 := BarrierFiles(manifest, 0, 2)
		return readAll(t, seg1, front1, seg2, front2)
	}
	want := write([]string{"m", "n", "o"})
	for _, order := range [][]string{{"o", "n", "m"}, {"n", "o", "m"}} {
		if got := write(order); !reflect.DeepEqual(got, want) {
			t.Fatalf("order %v: barrier file bytes differ", order)
		}
	}
}

// sections reads the entry count and arena bytes of each shard's
// section of the segment at path.
func sections(t testing.TB, path string) (counts [numShards]uint64, blobs [numShards]int) {
	t.Helper()
	r, _, err := readCheckpointFile(path, kindSegment)
	if err != nil {
		t.Fatal(err)
	}
	for s := range counts {
		from := r.uvarint()
		counts[s] = r.uvarint()
		first := (from + sealedRestartEvery - 1) / sealedRestartEvery
		for n := (from+counts[s]+sealedRestartEvery-1)/sealedRestartEvery - first; n > 0; n-- {
			r.uvarint()
		}
		blobs[s] = len(r.bytes())
	}
	if err := r.done(); err != nil {
		t.Fatal(err)
	}
	return counts, blobs
}

// damagedManifests writes manifests of the fleet's chain, each with one
// file damaged: a segment missing, listed twice, swapped with a later one
// or dropped, or a segment or a frontier file replaced, after the
// manifest was written, by a file of other — a fleet of another store
// count over the same model, at the same level. The two segments swapped
// or dropped (a, b) both hold entries of one shard, so the damage shows
// as a section that does not start where its shard's arena stands; the
// foreign frontier file parses as well as the listed one did, and only
// its checksum tells them apart.
func (f *fleet) damagedManifests(t testing.TB, other *fleet) map[string]*Chain {
	t.Helper()
	segs, fronts := f.paths(f.chain.segs), f.paths(f.chain.fronts)
	a, b := -1, -1
	for i := 0; i < len(segs) && b < 0; i++ {
		ci, _ := sections(t, segs[i])
		for j := i + 1; j < len(segs) && b < 0; j++ {
			cj, _ := sections(t, segs[j])
			for s := range ci {
				if ci[s] > 0 && cj[s] > 0 {
					a, b = i, j
					break
				}
			}
		}
	}
	if b < 0 {
		t.Fatal("fleet chain has no two segments holding one shard")
	}
	// stand writes a copy of file under name, to be listed and then
	// removed or overwritten.
	stand := func(name, file string) string {
		path := filepath.Join(f.dir, name)
		if err := os.WriteFile(path, readAll(t, file)[0], 0o644); err != nil {
			t.Fatal(err)
		}
		return path
	}
	swapped := slices.Clone(segs)
	swapped[a], swapped[b] = swapped[b], swapped[a]
	gone, alienSeg, alienFront := stand("gone.seg", segs[a]), stand("alien.seg", segs[a]), stand("alien.front", fronts[0])
	withSeg, withFront := slices.Clone(segs), slices.Clone(fronts)
	withSeg[a], withFront[0] = alienSeg, alienFront
	out := map[string]*Chain{
		"missing":          f.manifestWith(t, "missing.mc", append(slices.Clone(segs), gone), fronts),
		"repeated":         f.manifestWith(t, "repeated.mc", append(slices.Clone(segs), segs[a]), fronts),
		"reordered":        f.manifestWith(t, "reordered.mc", swapped, fronts),
		"dropped":          f.manifestWith(t, "dropped.mc", slices.Delete(slices.Clone(segs), a, a+1), fronts),
		"foreign-segment":  f.manifestWith(t, "foreign-segment.mc", withSeg, fronts),
		"foreign-frontier": f.manifestWith(t, "foreign-frontier.mc", segs, withFront),
	}
	if err := os.Remove(gone); err != nil {
		t.Fatal(err)
	}
	for file, from := range map[string]string{alienSeg: other.paths(other.chain.segs)[a], alienFront: other.paths(other.chain.fronts)[0]} {
		if err := os.WriteFile(file, readAll(t, from)[0], 0o644); err != nil {
			t.Fatal(err)
		}
	}
	return out
}

// TestShardStoreMergeDisjointAndOverlap: a restore concatenates the
// disjoint segments of the fleet's chain; a manifest with a missing,
// repeated, reordered, dropped or foreign segment, or a foreign frontier
// file, is refused — the missing file with os.ErrNotExist, the rest as
// corrupt — by every store, and every file is left byte-intact.
func TestShardStoreMergeDisjointAndOverlap(t *testing.T) {
	m := diamondModel{k: 10}
	f := newFleet(t, m, 2, t.TempDir())
	f.run(t, 5)
	r := NewShardStore(0, ownedBy(0, 2))
	if _, err := r.Resume(f.chain); err != nil {
		t.Fatalf("disjoint chain: %v", err)
	}
	if r.Count() != f.stores[0].Count() {
		t.Fatalf("restored %d states, want %d", r.Count(), f.stores[0].Count())
	}
	g := newFleet(t, m, 3, t.TempDir())
	g.run(t, 5)
	for name, c := range f.damagedManifests(t, g) {
		before := dirBytes(t, f.dir)
		want := ErrCheckpointCorrupt
		if name == "missing" {
			want = os.ErrNotExist
		}
		for i := 0; i < 2; i++ {
			opened, err := OpenChain(c.path)
			if err == nil {
				_, err = NewShardStore(0, ownedBy(i, 2)).Resume(opened)
			}
			if !errors.Is(err, want) {
				t.Errorf("%s, store %d: got %v, want %v", name, i, err, want)
			}
		}
		if !reflect.DeepEqual(dirBytes(t, f.dir), before) {
			t.Errorf("%s: the refused restore changed a file", name)
		}
	}
}

// dirBytes reads every file in dir.
func dirBytes(t testing.TB, dir string) map[string]string {
	t.Helper()
	entries, err := os.ReadDir(dir)
	if err != nil {
		t.Fatal(err)
	}
	out := map[string]string{}
	for _, e := range entries {
		data, err := os.ReadFile(filepath.Join(dir, e.Name()))
		if err != nil {
			t.Fatal(err)
		}
		out[e.Name()] = string(data)
	}
	return out
}

// TestShardStoreMergeOverBudget: a chain whose segments each fit the
// budget but together exceed it is refused with ErrStateLimit.
func TestShardStoreMergeOverBudget(t *testing.T) {
	f := newFleet(t, diamondModel{k: 10}, 1, t.TempDir())
	f.run(t, 6)
	total := int(f.stores[0].Count())
	if _, err := NewShardStore(total-1, allShards).Resume(f.chain); !errors.Is(err, ErrStateLimit) {
		t.Fatalf("over-budget chain: %v, want ErrStateLimit", err)
	}
	if _, err := NewShardStore(total, allShards).Resume(f.chain); err != nil {
		t.Fatalf("chain at the budget: %v", err)
	}
}

// TestShardStoreRestoreOverBudget: rebuilding a store from a checkpoint
// that holds more states than its budget fails with ErrStateLimit.
func TestShardStoreRestoreOverBudget(t *testing.T) {
	f := newFleet(t, diamondModel{k: 10}, 1, t.TempDir())
	f.run(t, 3)
	if _, err := NewShardStore(3, allShards).Resume(f.chain); !errors.Is(err, ErrStateLimit) {
		t.Fatalf("over-budget restore: %v, want ErrStateLimit", err)
	}
}

// TestShardStoreSnapshotRepair: a failed barrier write loses nothing —
// the next segment reaches back to the last good write, so a chain
// without the failed levels restores the same store, and later files are
// byte-identical to a run whose writes all succeeded.
func TestShardStoreSnapshotRepair(t *testing.T) {
	m := diamondModel{k: 12}
	f := newFleet(t, m, 2, t.TempDir())
	f.fail = func(store int, level int32) bool { return store == 1 && (level == 2 || level == 3) }
	f.run(t, 6)
	g := newFleet(t, m, 2, t.TempDir())
	g.run(t, 6)
	// Level 5's frontier file went when level 6 closed.
	later := func(f *fleet) [][]byte { return readAll(t, append(f.files(1, 5)[:1], f.files(1, 6)...)...) }
	if !reflect.DeepEqual(later(f), later(g)) {
		t.Fatal("files after the repair differ")
	}
	a := NewShardStore(0, ownedBy(1, 2))
	b := NewShardStore(0, ownedBy(1, 2))
	fa, errA := a.Resume(f.chain)
	fb, errB := b.Resume(g.chain)
	if errA != nil || errB != nil {
		t.Fatalf("restores: %v / %v", errA, errB)
	}
	if a.Count() != b.Count() || len(fa) != len(fb) {
		t.Fatalf("repaired chain restored %d states, full chain %d", a.Count(), b.Count())
	}
}
