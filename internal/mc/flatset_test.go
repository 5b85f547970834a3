package mc

import (
	"errors"
	"fmt"
	"testing"
)

// collisionState builds an encoding for id whose hash lands in shard 0:
// every state of the adversarial model probes the same flat table, so
// shard-level concurrency, probe chains and index growth are all
// exercised under maximum contention. The nonce search is cheap (the
// shard index is 6 bits, so ~64 tries).
func collisionState(id int) State {
	for nonce := 0; ; nonce++ {
		enc := fmt.Sprintf("c%05d/%d", id, nonce)
		if hashBytes([]byte(enc))&(numShards-1) == 0 {
			return State(enc)
		}
	}
}

// collisionModel is a binary tree of n single-shard-hashing states:
// node i steps to 2i+1 and 2i+2. With n in the thousands, shard 0's
// probe index must grow several times mid-search while the other 63
// shards stay at their initial size.
type collisionModel struct{ n int }

func (m collisionModel) id(s State) int {
	var id, nonce int
	fmt.Sscanf(string(s), "c%05d/%d", &id, &nonce)
	return id
}

func (m collisionModel) Initial() []State { return []State{collisionState(0)} }

func (m collisionModel) Successors(s State) []State {
	i := m.id(s)
	var out []State
	for _, c := range []int{2*i + 1, 2*i + 2} {
		if c < m.n {
			out = append(out, collisionState(c))
		}
	}
	return out
}

// TestFlatSetSingleShardAdversary pits the engine against the oracle on
// the all-states-one-shard model: verdicts, counts, depths and the full
// counterexample trace (which threads parent refs through a table that
// grew repeatedly after those parents were claimed) must be identical at
// workers 1, 2 and 8.
func TestFlatSetSingleShardAdversary(t *testing.T) {
	m := collisionModel{n: 3000}
	t.Run("holds", func(t *testing.T) {
		compareWithOracle(t, m, func(from, to State) bool { return true }, nil)
	})
	t.Run("transition-violation", func(t *testing.T) {
		// Deep in the tree: the trace walks parent refs claimed before
		// several index growths.
		bad := collisionState(2897)
		compareWithOracle(t, m, func(from, to State) bool { return to != bad }, nil)
	})
	t.Run("state-violation", func(t *testing.T) {
		bad := collisionState(1553)
		compareWithOracle(t, m, nil, func(s State) bool { return s != bad })
	})
}

// TestFlatSetGrowthUnderCollisions drives thousands of colliding claims
// into one shard directly: the index must grow (several doublings past
// its 32-cell start), every earlier ref must survive the growths
// bytewise, and the load factor must stay below the 3/4 growth
// threshold.
func TestFlatSetGrowthUnderCollisions(t *testing.T) {
	const n = 3000
	v := newVisitedSet(n+1, allShards)
	var pc probeCounter
	encs := make([][]byte, n)
	refs := make([]uint32, n)
	for i := range encs {
		encs[i] = []byte(collisionState(i))
		h := hashBytes(encs[i])
		if h&(numShards-1) != 0 {
			t.Fatalf("fixture broken: state %d hashes to shard %d", i, h&(numShards-1))
		}
		st, ref := v.claim(encs[i], h, 0, uint64(i), false, 0, &pc)
		if st != ClaimNew {
			t.Fatalf("claim %d = %d, want ClaimNew", i, st)
		}
		refs[i] = ref
	}
	sh := &v.shards[0]
	cells := len(*sh.index.Load())
	if cells <= initialIndexCells {
		t.Errorf("shard 0 index still %d cells after %d colliding claims", cells, n)
	}
	if got := int(v.shards[0].ordCount); got != n {
		t.Errorf("shard 0 holds %d entries, want %d", got, n)
	}
	if lf := v.loadFactor(); lf <= 0 || lf > 0.75 {
		t.Errorf("load factor %.2f outside (0, 0.75]", lf)
	}
	// Every pre-growth ref must still resolve to its original bytes, and
	// find must agree.
	for i := range encs {
		if got := string(v.bytesOf(refs[i])); got != string(encs[i]) {
			t.Fatalf("ref %d reads %q after growth, want %q", i, got, encs[i])
		}
		ref, ok := v.find(encs[i], hashBytes(encs[i]))
		if !ok || ref != refs[i] {
			t.Fatalf("find(%q) = (%d, %v), want (%d, true)", encs[i], ref, ok, refs[i])
		}
	}
	// The untouched shards must still be at their initial size.
	if got := len(*v.shards[1].index.Load()); got != initialIndexCells {
		t.Errorf("shard 1 index grew to %d cells with no entries", got)
	}
	// Long probe chains must have been observed.
	total := uint64(0)
	for _, c := range pc.hist {
		total += c
	}
	if total == 0 || pc.hist[0] == total {
		t.Errorf("probe histogram %v records no chains under full collision", pc.hist)
	}
}

// TestMemBudgetDeterministic: a budget between the set's initial
// footprint and the search's peak trips mid-run at a level boundary, so
// the partial result — error, states, transitions, depth — must be
// identical for every worker count, and a generous budget must change
// nothing at all.
func TestMemBudgetDeterministic(t *testing.T) {
	m := collisionModel{n: 3000}
	inv := func(from, to State) bool { return true }

	// Discover the run's peak footprint, then budget halfway up.
	var full Stats
	if _, err := CheckTransitionInvariant(m, inv, Options{Stats: func(s Stats) { full = s }}); err != nil {
		t.Fatal(err)
	}
	if full.PeakResidentBytes <= 0 || full.ResidentBytes <= 0 {
		t.Fatalf("stats report no resident bytes: %+v", full)
	}
	budget := full.PeakResidentBytes * 3 / 4

	type outcome struct {
		errIsLimit bool
		states     int
		trans      int
		depth      int
	}
	var want outcome
	for i, w := range workerCounts {
		res, err := CheckTransitionInvariant(m, inv, Options{Workers: w, MemBudget: budget})
		if !errors.Is(err, ErrStateLimit) {
			t.Fatalf("workers=%d: err = %v, want ErrStateLimit", w, err)
		}
		got := outcome{true, res.StatesExplored, res.TransitionsExplored, res.Depth}
		if i == 0 {
			want = got
			if got.states >= 3000 {
				t.Fatalf("budget %d did not cut the search (states=%d)", budget, got.states)
			}
			continue
		}
		if got != want {
			t.Errorf("workers=%d: partial result %+v differs from serial %+v", w, got, want)
		}
	}

	// With fallback walks the same exhaustion degrades to an explicit
	// inconclusive verdict instead of an error.
	res, err := CheckTransitionInvariant(m, inv,
		Options{MemBudget: budget, FallbackWalks: 4, FallbackDepth: 32, FallbackSeed: 1})
	if err != nil {
		t.Fatalf("fallback under memory budget must degrade, not fail: %v", err)
	}
	if !res.Inconclusive || !res.Holds {
		t.Fatalf("want inconclusive holds, got %+v", res)
	}

	// A budget above the peak must not perturb the verdict.
	res, err = CheckTransitionInvariant(m, inv, Options{MemBudget: full.PeakResidentBytes * 2})
	if err != nil || !res.Holds || res.StatesExplored != 3000 {
		t.Fatalf("generous budget perturbed the run: res=%+v err=%v", res, err)
	}
}

// TestStatsVisitedSetFields: the new Stats fields are populated and
// internally consistent on an ordinary run.
func TestStatsVisitedSetFields(t *testing.T) {
	var st Stats
	res, err := CheckTransitionInvariant(diamondModel{k: 24},
		func(from, to State) bool { return true },
		Options{Stats: func(s Stats) { st = s }})
	if err != nil || !res.Holds {
		t.Fatalf("res=%+v err=%v", res, err)
	}
	if st.LoadFactor <= 0 || st.LoadFactor > 0.75 {
		t.Errorf("load factor %.3f outside (0, 0.75]", st.LoadFactor)
	}
	if st.ResidentBytes <= 0 || st.PeakResidentBytes < st.ResidentBytes {
		t.Errorf("resident %d / peak %d inconsistent", st.ResidentBytes, st.PeakResidentBytes)
	}
	probes := uint64(0)
	for _, c := range st.ProbeHist {
		probes += c
	}
	if probes == 0 {
		t.Error("probe histogram empty after a full search")
	}
}
