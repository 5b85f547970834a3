package model

import (
	"bytes"
	"errors"
	"fmt"
	"math/rand"
	"sync"
	"sync/atomic"
	"testing"

	"ttastar/internal/guardian"
	"ttastar/internal/mc"
)

// reachableStates collects the concrete (oracle) reachable set by BFS —
// the ground truth the reduction's invariants are checked against.
func reachableStates(t *testing.T, m *Model) []mc.State {
	t.Helper()
	var states []mc.State
	seen := make(map[mc.State]bool)
	queue := m.Initial()
	for _, s := range queue {
		seen[s] = true
	}
	for len(queue) > 0 {
		s := queue[0]
		queue = queue[1:]
		states = append(states, s)
		for _, n := range m.Successors(s) {
			if !seen[n] {
				seen[n] = true
				queue = append(queue, n)
			}
		}
	}
	return states
}

// TestCanonicalFormInvariants: on every concrete reachable state of a
// reducible configuration, the canonical representative has no freeze
// node, an empty coupler tail, a zero out-of-slot counter, and is a
// fixed point of the canonicalizer.
func TestCanonicalFormInvariants(t *testing.T) {
	m := mustModel(t, Config{Authority: guardian.AuthoritySmallShift, Nodes: 3})
	if !m.Reducible() {
		t.Fatal("small shifting should be reducible")
	}
	for _, s := range reachableStates(t, m) {
		c := m.Canonicalize(s)
		if len(c) != len(s) {
			t.Fatalf("canonicalization changed encoding length: %d -> %d", len(s), len(c))
		}
		cs := m.Decode(c)
		for i, n := range cs.Nodes {
			if n.Phase == PhaseFreeze {
				t.Fatalf("canonical state keeps node %d frozen: %v", i, cs)
			}
		}
		for ci, cp := range cs.Couplers[:m.Config().Couplers] {
			if cp.BufferedKind != FrameNone || cp.BufferedID != 0 {
				t.Fatalf("canonical state keeps coupler %d buffer: %v", ci, cs)
			}
		}
		if cs.OutOfSlotUsed != 0 {
			t.Fatalf("canonical state keeps out-of-slot count: %v", cs)
		}
		if c2 := m.Canonicalize(c); c2 != c {
			t.Fatalf("canonicalization not idempotent:\n  %x\n  %x", c, c2)
		}
	}
}

// TestCanonicalizeIdentityWhenNotReducible: full-shifting couplers read
// their buffers (out-of-slot replay) and host-state detours break the
// freeze → init collapse, so both configurations must opt out — the
// canonicalizer is the identity there.
func TestCanonicalizeIdentityWhenNotReducible(t *testing.T) {
	for _, cfg := range []Config{
		{Authority: guardian.AuthorityFullShift, Nodes: 3},
		{Authority: guardian.AuthoritySmallShift, Nodes: 3, AllowHostStates: true},
	} {
		m := mustModel(t, cfg)
		if m.Reducible() {
			t.Fatalf("config %+v should not be reducible", cfg)
		}
		for _, s := range reachableStates(t, m) {
			if c := m.Canonicalize(s); c != s {
				t.Fatalf("non-reducible config %+v canonicalized %x to %x", cfg, s, c)
			}
		}
	}
}

// TestSilentRegionFaultInvisibility checks the determinism lemma the
// fast-forward collapse rests on: in every concrete reachable state
// whose nodes are all in listen or cold_start, every permitted fault
// assignment yields the same successor node-part — faults move only the
// dead coupler tail. It also pins stepSilentChain to exactly that
// common node-part.
func TestSilentRegionFaultInvisibility(t *testing.T) {
	m := mustModel(t, Config{Authority: guardian.AuthoritySmallShift, Nodes: 4})
	checked := 0
	for _, s := range reachableStates(t, m) {
		st := m.Decode(s)
		if !inSilentRegion(&st) {
			continue
		}
		checked++
		succs := m.Successors(s)
		if len(succs) == 0 {
			t.Fatalf("all-listen/cold-start state has no successors: %v", st)
		}
		first := m.Decode(succs[0])
		for _, o := range succs[1:] {
			os := m.Decode(o)
			for i := range os.Nodes {
				if os.Nodes[i] != first.Nodes[i] {
					t.Fatalf("fault assignment visible in silent region:\nfrom %v\n%v\nvs %v",
						st, first.Nodes, os.Nodes)
				}
			}
		}
		dst := State{Nodes: make([]NodeState, len(st.Nodes))}
		m.stepSilentChain(&st, &dst)
		for i := range dst.Nodes {
			if dst.Nodes[i] != first.Nodes[i] {
				t.Fatalf("stepSilentChain diverges from the enumerated successor:\nfrom %v\nchain %v\nenum  %v",
					st, dst.Nodes, first.Nodes)
			}
		}
	}
	if checked == 0 {
		t.Fatal("no all-listen/cold-start states reachable — lemma untested")
	}
}

// TestSilentRegionPackedStep pins the packed stepper to its State
// oracle: on every in-region state, silentStep and stepSilentChain agree
// on whether the chain stays in the all-{listen, cold_start} region and,
// when it does, on the successor's key. The states are every raw
// in-region successor met by a BFS over the reduced quotient at 3–5
// nodes, and every state of the silent chains walked from them, with 2
// and 3 couplers, with and without DisableBigBang; then random
// in-region node records at 6–7 nodes over the full field widths —
// slots past the cluster size, saturated counters, any timeout — and
// the chains from them. Under the race detector or -short the 5-node
// sweeps stop early.
func TestSilentRegionPackedStep(t *testing.T) {
	for _, n := range []int{3, 4, 5} {
		for _, c := range []int{2, 3} {
			for _, nobb := range []bool{false, true} {
				cfg := Config{Authority: guardian.AuthoritySmallShift, Nodes: n, Couplers: c, DisableBigBang: nobb}
				t.Run(fmt.Sprintf("%dnodes-%dcouplers-nobigbang=%v", n, c, nobb), func(t *testing.T) {
					maxStates := 0
					if (raceEnabled || testing.Short()) && n == 5 {
						maxStates = 10_000
					}
					checked := newPackedStepCheck(t, mustModel(t, cfg)).reducedSweep(maxStates)
					if checked == 0 {
						t.Fatal("no in-region state reached — stepper untested")
					}
					t.Logf("%d distinct in-region states checked", checked)
				})
			}
		}
	}

	t.Run("random", func(t *testing.T) {
		starts := 20_000
		if testing.Short() || raceEnabled {
			starts = 2_000
		}
		rng := rand.New(rand.NewSource(1))
		var checks []*packedStepCheck
		for _, n := range []int{6, 7} {
			for _, c := range []int{2, 3} {
				for _, nobb := range []bool{false, true} {
					m := mustModel(t, Config{Authority: guardian.AuthoritySmallShift, Nodes: n, Couplers: c, DisableBigBang: nobb})
					checks = append(checks, newPackedStepCheck(t, m))
				}
			}
		}
		stays := 0
		for i := 0; i < starts; i++ {
			pc := checks[i%len(checks)]
			st := State{Nodes: make([]NodeState, pc.m.cfg.Nodes)}
			for j := range st.Nodes {
				st.Nodes[j] = randomSilentNode(rng)
			}
			clearTail(&st, pc.m.cfg.Couplers)
			// Walk the chain a few slots on, so the counters the random
			// start sets up get consumed, checking every step.
			stays += pc.walk(&st, 24)
			if t.Failed() {
				return
			}
		}
		if stays < starts {
			t.Fatalf("random chains stayed in the region for only %d steps", stays)
		}
	})
}

// randomSilentNode draws a listen or cold_start record with every other
// field uniform over its full bit width, saturated counters and slots
// past the cluster size included. Every fourth draw is a cold starter
// on a small slot, so collisions and lone senders both come up at 6–7
// nodes.
func randomSilentNode(rng *rand.Rand) NodeState {
	n := NodeState{
		Phase:   PhaseListen + Phase(rng.Intn(2)),
		BigBang: rng.Intn(2) == 0,
		Slot:    uint8(rng.Intn(1 << bitsSlot)),
		Agreed:  uint8(rng.Intn(1 << bitsAgreed)),
		Failed:  uint8(rng.Intn(1 << bitsFailed)),
		Timeout: uint8(rng.Intn(1 << bitsTimeout)),
	}
	if rng.Intn(4) == 0 {
		n.Phase, n.Slot = PhaseColdStart, uint8(1+rng.Intn(3))
	}
	if rng.Intn(4) == 0 {
		n.Failed = 15
	}
	return n
}

// packedStepCheck compares silentStep with stepSilentChain for one
// model, each distinct in-region state once.
type packedStepCheck struct {
	t    *testing.T
	m    *Model
	e    *Expander
	next State
	seen map[ffKey]bool
}

func newPackedStepCheck(t *testing.T, m *Model) *packedStepCheck {
	return &packedStepCheck{t: t, m: m, e: m.newExpander(),
		next: State{Nodes: make([]NodeState, m.cfg.Nodes)}, seen: make(map[ffKey]bool)}
}

// step checks the in-region state st (tail empty) and advances st to
// its successor; it reports whether that successor is in the region
// and not yet checked.
func (pc *packedStepCheck) step(st *State) bool {
	m := pc.m
	k := loadKey([]byte(m.Encode(*st)))
	pc.seen[k] = true
	clearTail(&pc.next, m.cfg.Couplers)
	want := m.stepSilentChain(st, &pc.next)
	got, ok := pc.e.silentStep(k)
	if ok != want {
		pc.t.Errorf("%d nodes, nobigbang=%v: from %v silentStep stays in region %v, oracle %v (oracle successor %v)",
			m.cfg.Nodes, m.cfg.DisableBigBang, st.Nodes, ok, want, pc.next.Nodes)
		return false
	}
	if !ok {
		return false
	}
	wantKey := loadKey([]byte(m.Encode(pc.next)))
	if got != wantKey {
		pc.t.Errorf("%d nodes, nobigbang=%v: from %v silentStep gives %v, oracle %v",
			m.cfg.Nodes, m.cfg.DisableBigBang, st.Nodes, m.DecodeBinary(pc.keyBytes(got)).Nodes, pc.next.Nodes)
		return false
	}
	copy(st.Nodes, pc.next.Nodes)
	return !pc.seen[got]
}

// walk checks the chain from st for at most limit steps, stopping
// where it leaves the region or meets a checked state, and returns the
// number of steps taken before it stopped.
func (pc *packedStepCheck) walk(st *State, limit int) int {
	for steps := 0; steps < limit; steps++ {
		if !pc.step(st) {
			return steps
		}
	}
	return limit
}

// keyBytes is the encoding a key holds.
func (pc *packedStepCheck) keyBytes(k ffKey) mc.State {
	enc := make([]byte, pc.e.size)
	k.store(enc)
	return mc.State(enc)
}

// reducedSweep runs a BFS over the reduced quotient (at most maxStates
// states; 0 for all of it), checks the silent chain from every raw
// in-region successor it meets, and returns how many distinct in-region
// states it checked.
func (pc *packedStepCheck) reducedSweep(maxStates int) int {
	m := pc.m
	var queue []mc.State
	seen := make(map[mc.State]bool)
	for _, s := range m.Initial() {
		c := m.Canonicalize(s)
		if !seen[c] {
			seen[c] = true
			queue = append(queue, c)
		}
	}
	st := State{Nodes: make([]NodeState, m.cfg.Nodes)}
	for len(queue) > 0 && (maxStates == 0 || len(seen) < maxStates) {
		s := queue[0]
		queue = queue[1:]
		for _, succ := range m.Successors(s) {
			m.decodeInto([]byte(succ), &st)
			if inSilentRegion(&st) {
				clearTail(&st, m.cfg.Couplers)
				if pc.walk(&st, ffCap); pc.t.Failed() {
					return len(pc.seen)
				}
			}
			if c := m.Canonicalize(succ); !seen[c] {
				seen[c] = true
				queue = append(queue, c)
			}
		}
	}
	return len(pc.seen)
}

// inSilentRegion reports whether every node of s is in listen or
// cold_start.
func inSilentRegion(s *State) bool {
	for _, n := range s.Nodes {
		if n.Phase != PhaseListen && n.Phase != PhaseColdStart {
			return false
		}
	}
	return true
}

// TestReducedOracleEquivalence: the reduced search and the oracle agree
// on the verdict for every authority, cluster size 2–4, and the model
// ablations, at 1, 2 and 8 workers — and the reduced search marks its
// Result and explores no more states than the oracle.
func TestReducedOracleEquivalence(t *testing.T) {
	if testing.Short() {
		t.Skip("equivalence sweep skipped with -short")
	}
	cfgs := []Config{
		{Authority: guardian.AuthorityPassive},
		{Authority: guardian.AuthorityTimeWindows},
		{Authority: guardian.AuthoritySmallShift},
		{Authority: guardian.AuthorityFullShift},
		{Authority: guardian.AuthoritySmallShift, Nodes: 2},
		{Authority: guardian.AuthoritySmallShift, Nodes: 3},
		{Authority: guardian.AuthoritySmallShift, DisableBigBang: true},
		{Authority: guardian.AuthoritySmallShift, AllowInitFreeze: true},
		{Authority: guardian.AuthoritySmallShift, DataSlots: []int{2, 4}},
		{Authority: guardian.AuthorityFullShift, MaxOutOfSlot: 1},
		{Authority: guardian.AuthorityFullShift, NoColdStartReplay: true},
	}
	for _, cfg := range cfgs {
		m := mustModel(t, cfg)
		oracle, err := mc.CheckTransitionInvariantBytes(m, m.PropertyBytes(), mc.Options{NoReduce: true})
		if err != nil {
			t.Fatalf("%+v: oracle: %v", cfg, err)
		}
		if oracle.Reduced {
			t.Fatalf("%+v: oracle run marked Reduced", cfg)
		}
		for _, workers := range []int{1, 2, 8} {
			red, err := mc.CheckTransitionInvariantBytes(m, m.PropertyBytes(), mc.Options{Workers: workers})
			if err != nil {
				t.Fatalf("%+v workers=%d: reduced: %v", cfg, workers, err)
			}
			if red.Holds != oracle.Holds {
				t.Errorf("%+v workers=%d: reduced holds=%v, oracle holds=%v",
					cfg, workers, red.Holds, oracle.Holds)
			}
			if red.Reduced != m.Reducible() {
				t.Errorf("%+v workers=%d: Reduced=%v but Reducible=%v",
					cfg, workers, red.Reduced, m.Reducible())
			}
			if !red.Reduced {
				// Identity reduction: the whole Result must match byte
				// for byte, counterexample included.
				if red.StatesExplored != oracle.StatesExplored ||
					red.TransitionsExplored != oracle.TransitionsExplored ||
					red.Depth != oracle.Depth ||
					len(red.Counterexample) != len(oracle.Counterexample) {
					t.Errorf("%+v workers=%d: non-reducible run diverged from oracle: %+v vs %+v",
						cfg, workers, red, oracle)
				}
				continue
			}
			if red.StatesExplored >= oracle.StatesExplored {
				t.Errorf("%+v workers=%d: reduction did not shrink the space: %d vs %d",
					cfg, workers, red.StatesExplored, oracle.StatesExplored)
			}
		}
	}
}

// noActive is a synthetic transition invariant that fails on every
// reducible configuration — "no node ever becomes active" — used to
// exercise the reduced counterexample path, which the §5.1 property
// never reaches (every reducible configuration satisfies it).
func noActive(m *Model) mc.TransitionInvariantBytes {
	return func(from, to []byte) bool {
		s := m.Decode(mc.State(to))
		for _, n := range s.Nodes {
			if n.Phase == PhaseActive {
				return false
			}
		}
		return true
	}
}

// TestReducedCounterexampleDecanonicalizes: a violation found in the
// quotient must come back as a concrete witness — a trace rooted at the
// initial state whose every step is a real oracle transition and whose
// last step violates the invariant.
func TestReducedCounterexampleDecanonicalizes(t *testing.T) {
	m := mustModel(t, Config{Authority: guardian.AuthoritySmallShift, Nodes: 3})
	for _, workers := range []int{1, 2, 8} {
		res, err := mc.CheckTransitionInvariantBytes(m, noActive(m), mc.Options{Workers: workers})
		if err != nil {
			t.Fatalf("workers=%d: %v", workers, err)
		}
		if res.Holds || !res.Reduced {
			t.Fatalf("workers=%d: expected a reduced FAILS, got %+v", workers, res)
		}
		cex := res.Counterexample
		if len(cex) < 2 {
			t.Fatalf("workers=%d: degenerate counterexample: %d states", workers, len(cex))
		}
		if cex[0] != m.Initial()[0] {
			t.Errorf("workers=%d: witness does not start at the initial state", workers)
		}
		for i := 1; i < len(cex); i++ {
			found := false
			for _, s := range m.Successors(cex[i-1]) {
				if s == cex[i] {
					found = true
					break
				}
			}
			if !found {
				t.Fatalf("workers=%d: witness step %d is not a concrete transition", workers, i)
			}
		}
		if noActive(m)([]byte(cex[len(cex)-2]), []byte(cex[len(cex)-1])) {
			t.Errorf("workers=%d: witness's final step does not violate the invariant", workers)
		}
		if res.Depth != len(cex)-1 {
			t.Errorf("workers=%d: Depth %d != witness length-1 %d", workers, res.Depth, len(cex)-1)
		}
	}
}

// TestCanonicalizeZeroAlloc: the canonicalizer shares the claim path's
// zero-allocation budget on every path — a plain collapse, a memo miss
// that walks and memoizes its chain, and a memo hit — once the walk's
// path scratch has grown. Only reduced expanders of a Reducible
// configuration carry the memo: the oracle mode's expanders and those of
// non-reducible configurations (full shifting, a single coupler) never
// allocate it.
func TestCanonicalizeZeroAlloc(t *testing.T) {
	m := mustModel(t, Config{Authority: guardian.AuthoritySmallShift})
	e := m.NewReducedExpander().(*Expander)
	enc := append([]byte(nil), []byte(m.Initial()[0])...)
	e.Canonicalize(enc) // warm the scratch
	var someSucc []byte
	for _, s := range e.Successors(enc) {
		someSucc = append(someSucc[:0], s...)
	}
	allocs := testing.AllocsPerRun(200, func() {
		copy(enc, someSucc)
		e.Canonicalize(enc)
	})
	if allocs != 0 {
		t.Errorf("Canonicalize allocates: %.1f allocs/op", allocs)
	}

	// An all-listen state whose chain runs through the listen timeouts
	// into a cold start: a memo miss walks, a repeat hits.
	st := State{Nodes: make([]NodeState, 4)}
	for i := range st.Nodes {
		st.Nodes[i] = m.enterListen(uint8(i + 1))
	}
	clearTail(&st, m.Config().Couplers)
	listen := []byte(m.Encode(st))
	k := loadKey(listen)
	e.Canonicalize(append([]byte(nil), listen...)) // grow the path scratch
	if _, d, ok := e.memoGet(k, 0); !ok || d == 0 {
		t.Fatalf("walked chain not memoized: hit=%v dist=%d", ok, d)
	}
	allocs = testing.AllocsPerRun(200, func() {
		copy(enc, listen)
		clear(e.memo)
		e.Canonicalize(enc)
	})
	if allocs != 0 {
		t.Errorf("Canonicalize allocates on a memo miss: %.1f allocs/op", allocs)
	}
	allocs = testing.AllocsPerRun(200, func() {
		copy(enc, listen)
		e.Canonicalize(enc)
	})
	if allocs != 0 {
		t.Errorf("Canonicalize allocates on a memo hit: %.1f allocs/op", allocs)
	}

	if m.NewExpander().(*Expander).memo != nil {
		t.Error("oracle-mode expander allocated the fast-forward memo")
	}
	for _, cfg := range []Config{
		{Authority: guardian.AuthorityFullShift},
		{Authority: guardian.AuthoritySmallShift, Couplers: 1},
		{Authority: guardian.AuthoritySmallShift, AllowHostStates: true},
	} {
		if mustModel(t, cfg).NewReducedExpander().(*Expander).memo != nil {
			t.Errorf("%+v: non-reducible expander allocated the fast-forward memo", cfg)
		}
	}
}

// TestReducedFaSignature pins the commutation filter's equivalences:
// channel order commutes, and a bad frame is absorbed only on a silent
// bus.
func TestReducedFaSignature(t *testing.T) {
	cs := Content{Kind: FrameCState, ID: 2}
	bad := Content{Kind: FrameBad}
	none := Content{Kind: FrameNone}
	if reducedFaSignature([MaxCouplers]Content{cs, bad}, 2, true) !=
		reducedFaSignature([MaxCouplers]Content{bad, cs}, 2, true) {
		t.Error("channel swap not identified")
	}
	if reducedFaSignature([MaxCouplers]Content{bad, none}, 2, false) !=
		reducedFaSignature([MaxCouplers]Content{none, none}, 2, false) {
		t.Error("bad frame on a silent bus not absorbed")
	}
	if reducedFaSignature([MaxCouplers]Content{bad, cs}, 2, true) ==
		reducedFaSignature([MaxCouplers]Content{none, cs}, 2, true) {
		t.Error("bad frame on an active bus wrongly absorbed")
	}
	if reducedFaSignature([MaxCouplers]Content{cs, cs}, 2, true) ==
		reducedFaSignature([MaxCouplers]Content{none, cs}, 2, true) {
		t.Error("distinct channel outcomes identified")
	}
}

// clearTail resets the dead coupler/out-of-slot tail to its empty value:
// FrameNone for the model's nc couplers (the decoded form of the encoded
// empty tail), zero for the padding entries past them.
func clearTail(s *State, nc int) {
	for c := 0; c < nc; c++ {
		s.Couplers[c] = CouplerState{BufferedKind: FrameNone}
	}
	for c := nc; c < MaxCouplers; c++ {
		s.Couplers[c] = CouplerState{}
	}
	s.OutOfSlotUsed = 0
}

// refCanon is the decode → collapse → fast-forward → re-encode
// canonicalizer that Expander.Canonicalize replaced, kept as its test
// oracle. It works on decoded States: it rewrites freeze records and
// clears the tail field by field, walks the silent chain with Brent's
// cycle detection over node records, and compares cycle members by
// re-encoding them. It has no memo.
type refCanon struct {
	m                  *Model
	s, next, tort, min State
	buf, minBuf        []byte
}

func newRefCanon(m *Model) *refCanon {
	n := m.Config().Nodes
	r := &refCanon{m: m}
	for _, s := range []*State{&r.s, &r.next, &r.tort, &r.min} {
		s.Nodes = make([]NodeState, n)
	}
	return r
}

// canonicalize rewrites enc in place to its class representative.
func (r *refCanon) canonicalize(enc []byte) {
	m := r.m
	if !m.Reducible() {
		return
	}
	m.decodeInto(enc, &r.s)
	cur := &r.s
	allLC := true
	for i := range cur.Nodes {
		switch cur.Nodes[i].Phase {
		case PhaseFreeze:
			cur.Nodes[i] = NodeState{Phase: PhaseInit}
			allLC = false
		case PhaseListen, PhaseColdStart:
		default:
			allLC = false
		}
	}
	clearTail(cur, m.cfg.Couplers)
	if allLC {
		cur = r.fastForward(cur)
	}
	r.buf = m.appendBinary(r.buf[:0], cur)
	copy(enc, r.buf)
}

// fastForward returns the last in-region state of cur's chain, or the
// minimal-encoding state of the in-region cycle it settles into, or the
// state ffCap steps on.
func (r *refCanon) fastForward(cur *State) *State {
	m := r.m
	spare := &r.next
	clearTail(spare, m.cfg.Couplers)
	clearTail(&r.tort, m.cfg.Couplers)
	clearTail(&r.min, m.cfg.Couplers)

	tort := &r.tort
	copy(tort.Nodes, cur.Nodes)
	lam, power := 0, 1
	for steps := 0; ; steps++ {
		if steps >= ffCap {
			return cur
		}
		if !m.stepSilentChain(cur, spare) {
			return cur
		}
		cur, spare = spare, cur
		lam++
		if sameNodes(cur, tort) {
			break
		}
		if lam == power {
			copy(tort.Nodes, cur.Nodes)
			power *= 2
			lam = 0
		}
	}

	min := &r.min
	copy(min.Nodes, cur.Nodes)
	r.minBuf = m.appendBinary(r.minBuf[:0], min)
	for i := 1; i < lam; i++ {
		if !m.stepSilentChain(cur, spare) {
			return cur
		}
		cur, spare = spare, cur
		r.buf = m.appendBinary(r.buf[:0], cur)
		if bytes.Compare(r.buf, r.minBuf) < 0 {
			copy(min.Nodes, cur.Nodes)
			r.minBuf = append(r.minBuf[:0], r.buf...)
		}
	}
	return min
}

// stepSilentChain advances an all-{listen, cold_start} state by one slot
// under the fault-free assignment, writing the successor's node records
// into dst.Nodes (its tail is left untouched: in the region it is dead),
// and reports whether the successor is still inside the all-{listen,
// cold_start} region. By the fault-invisibility lemma (see the package
// comment above and TestSilentRegionFaultInvisibility) this is the
// unique masked successor of the whole fault menu.
func (m *Model) stepSilentChain(src, dst *State) bool {
	nominal, activity := m.nominalContent(src)
	var ch [MaxCouplers]Content
	for c := 0; c < m.cfg.Couplers; c++ {
		ch[c] = nominal
	}
	inRegion := true
	for i := range src.Nodes {
		own := uint8(i + 1)
		var n NodeState
		if src.Nodes[i].Phase == PhaseListen {
			n = m.stepListen(src.Nodes[i], own, ch)
		} else {
			n = m.stepOperational(src.Nodes[i], own, ch, activity)
		}
		dst.Nodes[i] = n
		if n.Phase != PhaseListen && n.Phase != PhaseColdStart {
			inRegion = false
		}
	}
	return inRegion
}

// sameNodes reports whether two states agree on their node records.
func sameNodes(a, b *State) bool {
	for i := range a.Nodes {
		if a.Nodes[i] != b.Nodes[i] {
			return false
		}
	}
	return true
}

// collapsedKey is the memo key Canonicalize consults for enc — its
// encoding with the tail reset — when every node of enc is in listen or
// cold_start; ok is false for every other state.
func collapsedKey(e *Expander, enc []byte) (k ffKey, ok bool) {
	n := len(e.s.Nodes)
	for i := 0; i < n; i++ {
		if p := Phase(phaseBits(enc, i)); p != PhaseListen && p != PhaseColdStart {
			return ffKey{}, false
		}
	}
	var nodes ffKey
	for b := 0; b < bitsPerNode*n; b++ {
		nodes[b>>6] |= 1 << (63 - b&63)
	}
	k = loadKey(enc)
	for w := range k {
		k[w] = k[w]&nodes[w] | e.tailKey[w]
	}
	return k, true
}

// canonRig runs one input through the reference and through two packed
// canonicalizers: a warm reduced expander whose memo persists across
// calls, and a memo-less expander that walks every chain afresh.
type canonRig struct {
	m           *Model
	ref         *refCanon
	warm, cold  *Expander
	hits, walks int // warm-expander calls that consulted the memo, by outcome
	want, got   []byte
}

func newCanonRig(m *Model) *canonRig {
	return &canonRig{m: m, ref: newRefCanon(m), warm: m.NewReducedExpander().(*Expander), cold: m.newExpander()}
}

// check canonicalizes in through all three, and the warm result once
// more, and returns a description of the first disagreement or
// non-idempotent result, or "" — with the packed result left in in.
func (r *canonRig) check(in []byte) string {
	r.want = append(r.want[:0], in...)
	r.ref.canonicalize(r.want)
	r.got = append(r.got[:0], in...)
	r.cold.Canonicalize(r.got)
	if !bytes.Equal(r.got, r.want) {
		return fmt.Sprintf("memo-less: %x -> %x, reference %x", in, r.got, r.want)
	}
	if k, ok := collapsedKey(r.warm, in); ok {
		if _, _, hit := r.warm.memoGet(k, 0); hit {
			r.hits++
		} else {
			r.walks++
		}
	}
	r.got = append(r.got[:0], in...)
	r.warm.Canonicalize(r.got)
	if !bytes.Equal(r.got, r.want) {
		return fmt.Sprintf("warm: %x -> %x, reference %x", in, r.got, r.want)
	}
	r.warm.Canonicalize(r.got)
	if !bytes.Equal(r.got, r.want) {
		return fmt.Sprintf("not idempotent: %x -> %x -> %x", in, r.want, r.got)
	}
	copy(in, r.got)
	return ""
}

// checkedModel is a Model whose reduced expanders run every
// canonicalization the engine asks for through a canonRig, so a reduced
// search checks the packed canonicalizer on every successor it reaches.
type checkedModel struct {
	*Model
	t     *testing.T
	bad   atomic.Int64
	mu    sync.Mutex
	rigs  []*canonRig
	calls atomic.Int64
}

type checkedExpander struct {
	*Expander
	cm  *checkedModel
	rig *canonRig
}

func (cm *checkedModel) NewReducedExpander() mc.CanonicalExpander {
	rig := newCanonRig(cm.Model)
	cm.mu.Lock()
	cm.rigs = append(cm.rigs, rig)
	cm.mu.Unlock()
	return &checkedExpander{Expander: rig.warm, cm: cm, rig: rig}
}

func (x *checkedExpander) Canonicalize(enc []byte) {
	x.cm.calls.Add(1)
	if msg := x.rig.check(enc); msg != "" && x.cm.bad.Add(1) <= 5 {
		x.cm.t.Error(msg)
	}
}

// TestCanonicalizePackedMatchesReference: the packed canonicalizer is
// byte-identical to the reference, through a warm memo and with none,
// and idempotent, on every reduced successor reachable at 3–6 nodes with
// 2 and with 3 couplers, under a per-coupler fault mask, without the
// big-bang rule, and in a
// bounded 7-node sweep — and on 200k random byte strings of the
// encoding's width, half of them with every phase forced to listen or
// cold_start so the fast-forward walks from arbitrary counters. Under
// -short only the small sweeps run; under the race detector the large
// ones are bounded.
func TestCanonicalizePackedMatchesReference(t *testing.T) {
	type sweep struct {
		cfg       Config
		maxStates int // 0: the whole reachable quotient
		large     bool
	}
	bound := func(n int) int {
		if raceEnabled {
			return n
		}
		return 0
	}
	sweeps := []sweep{
		{cfg: Config{Nodes: 3}},
		{cfg: Config{Nodes: 4}},
		{cfg: Config{Nodes: 4, CouplerFaults: []FaultSet{FaultSetSilence, FaultSetBadFrame}}},
		{cfg: Config{Nodes: 4, DisableBigBang: true}},
		{cfg: Config{Nodes: 3, Couplers: 3}},
		{cfg: Config{Nodes: 4, Couplers: 3}},
		{cfg: Config{Nodes: 5}, large: true},
		{cfg: Config{Nodes: 5, Couplers: 3}, large: true},
		{cfg: Config{Nodes: 6}, maxStates: bound(30_000), large: true},
		{cfg: Config{Nodes: 6, Couplers: 3}, maxStates: bound(30_000), large: true},
		{cfg: Config{Nodes: 7}, maxStates: 300_000, large: true},
	}
	if raceEnabled {
		sweeps[len(sweeps)-1].maxStates = 30_000
	}
	for _, sw := range sweeps {
		sw.cfg.Authority = guardian.AuthoritySmallShift
		name := fmt.Sprintf("%dnodes-%dcouplers", sw.cfg.Nodes, max(sw.cfg.Couplers, 2))
		if sw.cfg.CouplerFaults != nil {
			name += "-faultmask"
		}
		if sw.cfg.DisableBigBang {
			name += "-nobigbang"
		}
		t.Run(name, func(t *testing.T) {
			if sw.large && testing.Short() {
				t.Skip("large sweep skipped with -short")
			}
			m := mustModel(t, sw.cfg)
			cm := &checkedModel{Model: m, t: t}
			res, err := mc.CheckTransitionInvariantBytes(cm, m.PropertyBytes(),
				mc.Options{Workers: 2, MaxStates: sw.maxStates})
			if err != nil && !(sw.maxStates > 0 && errors.Is(err, mc.ErrStateLimit)) {
				t.Fatal(err)
			}
			if !res.Reduced {
				t.Fatal("sweep did not run reduced")
			}
			hits, walks := 0, 0
			for _, r := range cm.rigs {
				hits += r.hits
				walks += r.walks
			}
			// A bounded prefix of the search may meet every silent state
			// only once (its walks still hit the memo mid-chain); the whole
			// quotient revisits them.
			if sw.maxStates == 0 && (hits == 0 || walks == 0) {
				t.Errorf("memo paths not both exercised: %d hits, %d walks", hits, walks)
			}
			t.Logf("%d states, %d canonicalizations, %d memo hits, %d walks",
				res.StatesExplored, cm.calls.Load(), hits, walks)
		})
	}

	t.Run("random", func(t *testing.T) {
		count := 200_000
		if testing.Short() || raceEnabled {
			count = 20_000
		}
		var rigs []*canonRig
		for n := 2; n <= 7; n++ {
			for _, c := range []int{2, 3} {
				rigs = append(rigs, newCanonRig(mustModel(t, Config{Nodes: n, Couplers: c})))
			}
		}
		rng := rand.New(rand.NewSource(1))
		inputs := make([][]byte, count)
		for i := range inputs {
			r := rigs[i%len(rigs)]
			enc := make([]byte, binarySize(r.m.cfg.Nodes, r.m.cfg.Couplers))
			rng.Read(enc)
			if rng.Intn(2) == 0 {
				for j := 0; j < r.m.cfg.Nodes; j++ {
					setPhase(enc, j, PhaseListen+Phase(rng.Intn(2)))
				}
			}
			inputs[i] = enc
		}
		// Two passes: the first meets every input with whatever the memo
		// holds from earlier inputs, the second re-meets them warm.
		bad := 0
		for pass := 0; pass < 2; pass++ {
			for i, in := range inputs {
				r := rigs[i%len(rigs)]
				if msg := r.check(append([]byte(nil), in...)); msg != "" {
					if bad++; bad <= 5 {
						t.Errorf("pass %d: %s", pass, msg)
					}
				}
			}
		}
		hits, walks := 0, 0
		for _, r := range rigs {
			hits += r.hits
			walks += r.walks
		}
		if hits == 0 || walks == 0 {
			t.Errorf("memo paths not both exercised: %d hits, %d walks", hits, walks)
		}
	})
}

// setPhase overwrites node i's phase field in a packed encoding.
func setPhase(enc []byte, i int, p Phase) {
	bit := bitsPerNode * i
	b := bit >> 3
	if bit&7 == 0 {
		enc[b] = enc[b]&0x0F | byte(p)<<4
	} else {
		enc[b] = enc[b]&0xF0 | byte(p)
	}
}

// FuzzCanonicalize: on arbitrary bytes of the encoding's width, for any
// reducible cluster size and coupler count, with the big-bang rule on
// and off, the packed canonicalizer — warm and memo-less — agrees with
// the reference, is idempotent, and does not panic.
func FuzzCanonicalize(f *testing.F) {
	var rigs []*canonRig
	for _, nobb := range []bool{false, true} {
		for n := 2; n <= 7; n++ {
			for _, c := range []int{2, 3} {
				m, err := New(Config{Nodes: n, Couplers: c, DisableBigBang: nobb})
				if err != nil {
					f.Fatal(err)
				}
				rigs = append(rigs, newCanonRig(m))
			}
		}
	}
	for i, r := range rigs {
		f.Add(uint8(i), []byte(r.m.Initial()[0]))
		listen := State{Nodes: make([]NodeState, r.m.cfg.Nodes)}
		for j := range listen.Nodes {
			listen.Nodes[j] = r.m.enterListen(uint8(j + 1))
		}
		clearTail(&listen, r.m.cfg.Couplers)
		f.Add(uint8(i), []byte(r.m.Encode(listen)))
	}
	var mu sync.Mutex
	f.Fuzz(func(t *testing.T, pick uint8, data []byte) {
		mu.Lock()
		defer mu.Unlock()
		r := rigs[int(pick)%len(rigs)]
		enc := make([]byte, binarySize(r.m.cfg.Nodes, r.m.cfg.Couplers))
		copy(enc, data)
		if msg := r.check(enc); msg != "" {
			t.Fatalf("%d nodes, %d couplers, nobigbang=%v: %s", r.m.cfg.Nodes, r.m.cfg.Couplers, r.m.cfg.DisableBigBang, msg)
		}
	})
}
