package model

import (
	"errors"
	"fmt"
	"reflect"
	"sync/atomic"
	"testing"

	"ttastar/internal/guardian"
	"ttastar/internal/mc"
)

// collectLevels walks the first depth BFS levels of m through an
// Expander, returning distinct states in discovery order; a positive
// maxStates stops the walk once that many states are collected.
func collectLevels(t *testing.T, m *Model, e *Expander, depth, maxStates int) [][]byte {
	t.Helper()
	seen := map[string]bool{}
	var all, frontier [][]byte
	for _, s := range m.Initial() {
		b := []byte(s)
		seen[string(b)] = true
		all = append(all, b)
		frontier = append(frontier, b)
	}
	for d := 0; d < depth; d++ {
		var next [][]byte
		for _, s := range frontier {
			for _, succ := range e.Successors(s) {
				if !seen[string(succ)] {
					if maxStates > 0 && len(all) == maxStates {
						return all
					}
					seen[string(succ)] = true
					cp := append([]byte(nil), succ...)
					all = append(all, cp)
					next = append(next, cp)
				}
			}
		}
		frontier = next
	}
	return all
}

// TestExpanderSteadyStateZeroAlloc is the successor-generation half of
// the PR's zero-allocation contract: once an Expander's scratch has
// grown to its high-water capacity, expanding states allocates nothing.
// The bound is generous (0.5 allocs per expansion averaged over 50
// rounds) so incidental growth or GC noise cannot flake CI.
func TestExpanderSteadyStateZeroAlloc(t *testing.T) {
	// Full shifting exercises the widest expansion (out-of-slot replay).
	m := mustModel(t, Config{Authority: guardian.AuthorityFullShift})
	e := m.newExpander()
	states := collectLevels(t, m, e, 3, 0)
	// Warm pass: let every buffer reach the capacity this state set needs.
	for _, s := range states {
		e.Successors(s)
	}
	avg := testing.AllocsPerRun(50, func() {
		for _, s := range states {
			e.Successors(s)
		}
	})
	if avg > 0.5 {
		t.Errorf("steady-state Successors allocates %.2f per %d-state round, want 0", avg, len(states))
	}
}

// TestExpanderMatchesModelSuccessors: the engine-facing Expander and the
// public Successors wrapper agree state by state (same successors, same
// first-occurrence order, no duplicates), and independent Expanders are
// deterministic.
func TestExpanderMatchesModelSuccessors(t *testing.T) {
	m := mustModel(t, Config{Authority: guardian.AuthorityFullShift, MaxOutOfSlot: 1})
	e1 := m.newExpander()
	e2 := m.newExpander()
	states := collectLevels(t, m, e1, 4, 0)
	for _, s := range states {
		viaWrapper := m.Successors(mc.State(s))
		viaExpander := e2.Successors(s)
		if len(viaWrapper) != len(viaExpander) {
			t.Fatalf("state %x: wrapper %d successors, expander %d", s, len(viaWrapper), len(viaExpander))
		}
		seen := map[string]bool{}
		for i := range viaExpander {
			if string(viaWrapper[i]) != string(viaExpander[i]) {
				t.Fatalf("state %x successor %d: wrapper %x, expander %x", s, i, viaWrapper[i], viaExpander[i])
			}
			if seen[string(viaExpander[i])] {
				t.Fatalf("state %x: duplicate successor %x", s, viaExpander[i])
			}
			seen[string(viaExpander[i])] = true
		}
	}
}

// referenceSuccessors re-implements the pre-table enumeration: decode
// the state, assemble each successor State choice by choice, pack it
// with appendBinary (the reference bit writer), and dedup with a map,
// keeping first-occurrence order. In oracle mode no fault assignment is
// skipped; with reduce set, assignments are skipped by the reduced
// expander's commutation filter (reducedFaSignature), whose soundness
// the canonicalizer tests cover.
func referenceSuccessors(m *Model, e *Expander, enc []byte, reduce bool) [][]byte {
	m.decodeInto(enc, &e.s)
	nominal, sendersPresent := m.nominalContent(&e.s)
	e.fas = m.appendFaultAssignments(e.fas[:0], &e.s)
	seen := map[string]bool{}
	var sigs []uint32
	var out [][]byte
	var rec func(node, lo int)
	rec = func(node, lo int) {
		if node == len(e.next.Nodes) {
			b := m.appendBinary(nil, &e.next)
			if !seen[string(b)] {
				seen[string(b)] = true
				out = append(out, b)
			}
			return
		}
		for i := lo; i < e.choiceEnd[node]; i++ {
			e.next.Nodes[node] = e.choiceBuf[i]
			rec(node+1, e.choiceEnd[node])
		}
	}
	for fi := range e.fas {
		ch, activity := e.prepareChannels(fi, nominal, sendersPresent)
		if reduce {
			sig := reducedFaSignature(ch, m.cfg.Couplers, activity)
			if seenSig(sigs, sig) {
				continue
			}
			sigs = append(sigs, sig)
		}
		e.prepareChoices(ch, activity)
		rec(0, 0)
	}
	return out
}

// tableShadow mirrors an Expander's two direct-mapped tables slot by
// slot. replay makes the lookups a Successors call makes, in its order,
// with keys computed on the direct path (decoded state, fault menu,
// prepareChannels, the repeat filter), and counts hits, cold misses and
// evictions per table (0: outcomes, 1: choices); touched collects the
// slots of the last replay.
type tableShadow struct {
	slots                   [2]map[uint64]uint64
	hits, misses, evictions [2]int
	touched                 [2][]uint64
}

func newTableShadow() *tableShadow {
	return &tableShadow{slots: [2]map[uint64]uint64{{}, {}}}
}

func (sh *tableShadow) lookup(tab int, key uint64, bits uint) {
	slot := tableSlot(key, bits)
	sh.touched[tab] = append(sh.touched[tab], slot)
	switch old, ok := sh.slots[tab][slot]; {
	case ok && old == key:
		sh.hits[tab]++
		return
	case ok:
		sh.evictions[tab]++
	default:
		sh.misses[tab]++
	}
	sh.slots[tab][slot] = key
}

func (sh *tableShadow) replay(m *Model, e *Expander, enc []byte, reduce bool) {
	sh.touched[0], sh.touched[1] = sh.touched[0][:0], sh.touched[1][:0]
	m.decodeInto(enc, &e.s)
	nominal, sendersPresent := m.nominalContent(&e.s)
	tail := uint32(0)
	for c := 0; c < m.cfg.Couplers; c++ {
		tail = tail<<bitsPerCoupler | uint32(e.s.Couplers[c].BufferedKind)<<bitsBufID | uint32(e.s.Couplers[c].BufferedID)
	}
	tail = tail<<bitsOOS | uint32(e.s.OutOfSlotUsed)
	sh.lookup(0, outcomeKey(tail, nominal, sendersPresent), outcomeTableBits)
	e.fas = m.appendFaultAssignments(e.fas[:0], &e.s)
	var sigs []uint32
	for fi := range e.fas {
		ch, activity := e.prepareChannels(fi, nominal, sendersPresent)
		sig := faSignature(ch, m.cfg.Couplers, activity, e.next.OutOfSlotUsed)
		if reduce {
			sig = reducedFaSignature(ch, m.cfg.Couplers, activity)
		}
		if seenSig(sigs, sig) {
			continue
		}
		sigs = append(sigs, sig)
		for i := range e.s.Nodes {
			sh.lookup(1, choiceKey(nodeWord(&e.s.Nodes[i]), uint8(i+1), channelKey(ch, m.cfg.Couplers, activity)), choiceTableBits)
		}
	}
}

// TestIncrementalEncoderMatchesReference pins the table-driven hot path
// against the straightforward enumeration: decode, assemble every
// successor State, pack it with appendBinary, dedup with a map.
// Byte-for-byte, order included, for oracle and reduced expanders, on a
// sample of each configuration's first BFS states — the paper's options,
// asymmetric fault masks, 3 couplers and out-of-slot budgets. One fast
// expander of each mode serves every state of a configuration, so its
// tables run warm; a shadow of its direct-mapped slots, checked against
// the real tables after every call, proves that hits, cold misses and
// evictions all occur.
func TestIncrementalEncoderMatchesReference(t *testing.T) {
	walk, keep := 60_000, 6_000
	if testing.Short() || raceEnabled {
		walk, keep = 15_000, 1_500
	}
	var total tableShadow
	for _, cfg := range []Config{
		{},
		{Authority: guardian.AuthorityFullShift},
		{Authority: guardian.AuthorityFullShift, MaxOutOfSlot: 1},
		{Nodes: 6, Authority: guardian.AuthoritySmallShift, MaxOutOfSlot: 1},
		{DisableBigBang: true},
		{AllowHostStates: true},
		{AllowInitFreeze: true},
		{Authority: guardian.AuthorityFullShift, NoColdStartReplay: true},
		{Nodes: 5, Couplers: 3},
		{Couplers: 3, Authority: guardian.AuthorityFullShift},
		{Couplers: 3, Authority: guardian.AuthorityFullShift, DataSlots: []int{2},
			CouplerFaults: []FaultSet{FaultSetSilence, FaultSetBadFrame | FaultSetOutOfSlot, FaultSetAll}},
	} {
		m := mustModel(t, cfg)
		// Every stride-th state of a longer walk, so the sample reaches
		// past the startup levels a short walk stops in.
		var states [][]byte
		walked := collectLevels(t, m, m.newExpander(), 64, walk)
		for i := 0; i < len(walked); i += max(1, len(walked)/keep) {
			states = append(states, walked[i])
		}
		for _, reduce := range []bool{false, true} {
			fast := m.newExpander()
			if reduce {
				fast = m.NewReducedExpander().(*Expander)
			}
			ref := m.newExpander()
			sh := newTableShadow()
			for _, s := range states {
				sh.replay(m, ref, s, fast.reduce)
				got := fast.Successors(s)
				for _, slot := range sh.touched[0] {
					if fast.outcomes[slot].key != sh.slots[0][slot] {
						t.Fatalf("cfg %+v reduce=%v state %x: outcome slot %d holds %#x, shadow %#x", cfg, reduce, s, slot, fast.outcomes[slot].key, sh.slots[0][slot])
					}
				}
				for _, slot := range sh.touched[1] {
					if fast.choices[slot].key != sh.slots[1][slot] {
						t.Fatalf("cfg %+v reduce=%v state %x: choice slot %d holds %#x, shadow %#x", cfg, reduce, s, slot, fast.choices[slot].key, sh.slots[1][slot])
					}
				}
				want := referenceSuccessors(m, ref, s, fast.reduce)
				if len(got) != len(want) {
					t.Fatalf("cfg %+v reduce=%v state %x: %d successors, reference %d", cfg, reduce, s, len(got), len(want))
				}
				for i := range want {
					if string(got[i]) != string(want[i]) {
						t.Fatalf("cfg %+v reduce=%v state %x successor %d: got %x, reference %x", cfg, reduce, s, i, got[i], want[i])
					}
				}
			}
			for tab := range total.hits {
				total.hits[tab] += sh.hits[tab]
				total.misses[tab] += sh.misses[tab]
				total.evictions[tab] += sh.evictions[tab]
			}
		}
	}
	for tab, name := range []string{"outcome", "choice"} {
		t.Logf("%s table: %d hits, %d cold misses, %d evictions", name, total.hits[tab], total.misses[tab], total.evictions[tab])
		if total.hits[tab] == 0 || total.misses[tab] == 0 || total.evictions[tab] == 0 {
			t.Errorf("%s table: hits, cold misses and evictions not all exercised", name)
		}
	}
}

// TestPropertyBytesMatchesProperty: the nibble-probing byte invariant and
// the decoding string invariant agree on every reachable transition of
// the failing (full-shifting) model — including the violating ones.
func TestPropertyBytesMatchesProperty(t *testing.T) {
	m := mustModel(t, Config{Authority: guardian.AuthorityFullShift, MaxOutOfSlot: 1})
	strInv := m.Property()
	byteInv := m.PropertyBytes()
	e := m.newExpander()
	states := collectLevels(t, m, e, 6, 0)
	checked := 0
	for _, s := range states {
		for _, succ := range e.Successors(s) {
			want := strInv(mc.State(s), mc.State(succ))
			if got := byteInv(s, succ); got != want {
				t.Fatalf("PropertyBytes(%x -> %x) = %v, Property = %v", s, succ, got, want)
			}
			checked++
		}
	}
	if checked == 0 {
		t.Fatal("no transitions checked")
	}
	// The shallow walk above only sees holding transitions; cover the
	// violating side with the checker's own counterexample.
	res, err := mc.CheckTransitionInvariantBytes(m, byteInv, mc.Options{})
	if err != nil {
		t.Fatal(err)
	}
	if res.Holds || len(res.Counterexample) < 2 {
		t.Fatalf("expected a counterexample, got holds=%v len=%d", res.Holds, len(res.Counterexample))
	}
	from := res.Counterexample[len(res.Counterexample)-2]
	to := res.Counterexample[len(res.Counterexample)-1]
	if strInv(from, to) || byteInv([]byte(from), []byte(to)) {
		t.Errorf("counterexample transition not judged violating by both forms: Property=%v PropertyBytes=%v",
			strInv(from, to), byteInv([]byte(from), []byte(to)))
	}
}

// stringOracleCheck is an independent serial BFS over a string-keyed
// visited map — the pre-packed-engine semantics, reimplemented without
// any engine code — used to cross-check the checker on the real model.
func stringOracleCheck(m *Model, inv mc.TransitionInvariant) (mc.Result, []mc.State) {
	type rec struct {
		parent    mc.State
		hasParent bool
	}
	visited := map[mc.State]rec{}
	trace := func(s mc.State) []mc.State {
		var rev []mc.State
		for {
			rev = append(rev, s)
			r := visited[s]
			if !r.hasParent {
				break
			}
			s = r.parent
		}
		out := make([]mc.State, len(rev))
		for i := range rev {
			out[len(rev)-1-i] = rev[i]
		}
		return out
	}
	var res mc.Result
	res.Holds = true
	var frontier []mc.State
	for _, s := range m.Initial() {
		visited[s] = rec{}
		frontier = append(frontier, s)
	}
	for depth := 0; len(frontier) > 0; depth++ {
		var next []mc.State
		for _, s := range frontier {
			for _, succ := range m.Successors(s) {
				res.TransitionsExplored++
				if !inv(s, succ) {
					res.Holds = false
					res.Depth = depth + 1
					res.StatesExplored = len(visited)
					return res, append(trace(s), succ)
				}
				if _, ok := visited[succ]; ok {
					continue
				}
				visited[succ] = rec{parent: s, hasParent: true}
				next = append(next, succ)
			}
		}
		frontier = next
		if len(frontier) > 0 {
			res.Depth = depth + 1
		}
	}
	res.StatesExplored = len(visited)
	return res, nil
}

// TestEngineMatchesStringOracleE1Matrix checks the packed-key engine
// against the string-keyed serial oracle on the full E1 matrix — all
// four coupler authorities, verdicts, counts, depths and counterexample
// traces — at workers 1, 2 and 8.
func TestEngineMatchesStringOracleE1Matrix(t *testing.T) {
	if testing.Short() {
		t.Skip("E1 oracle sweep skipped with -short")
	}
	authorities := []guardian.Authority{
		guardian.AuthorityPassive,
		guardian.AuthorityTimeWindows,
		guardian.AuthoritySmallShift,
		guardian.AuthorityFullShift,
	}
	for _, a := range authorities {
		a := a
		t.Run(a.String(), func(t *testing.T) {
			m := mustModel(t, Config{Authority: a})
			want, wantTrace := stringOracleCheck(m, m.Property())
			for _, workers := range []int{1, 2, 8} {
				// The string oracle enumerates concrete states, so the
				// engine must run in oracle mode too; reduced-vs-oracle
				// equivalence is covered by canon_test.go.
				res, err := mc.CheckTransitionInvariantBytes(m, m.PropertyBytes(),
					mc.Options{Workers: workers, NoReduce: true})
				if err != nil {
					t.Fatalf("workers=%d: %v", workers, err)
				}
				if res.Holds != want.Holds ||
					res.StatesExplored != want.StatesExplored ||
					res.TransitionsExplored != want.TransitionsExplored ||
					res.Depth != want.Depth {
					t.Errorf("workers=%d: engine holds=%v states=%d transitions=%d depth=%d; oracle holds=%v states=%d transitions=%d depth=%d",
						workers, res.Holds, res.StatesExplored, res.TransitionsExplored, res.Depth,
						want.Holds, want.StatesExplored, want.TransitionsExplored, want.Depth)
				}
				if !reflect.DeepEqual(res.Counterexample, wantTrace) {
					t.Errorf("workers=%d: counterexample differs from oracle (len %d vs %d)",
						workers, len(res.Counterexample), len(wantTrace))
				}
			}
		})
	}
}

// choiceCheckModel is a Model whose expanders, oracle and reduced, check
// the choice table after every Successors call the engine makes: for
// every node under every fault assignment of the source — each input the
// call's lookups can reach — the table's entry (a hit on whatever the
// table held, or a fresh fill) must equal the direct appendNodeChoices
// packed by nodeWord.
type choiceCheckModel struct {
	*Model
	t       *testing.T
	bad     atomic.Int64
	lookups atomic.Int64
}

type choiceCheckExpander struct {
	*Expander
	cm   *choiceCheckModel
	ref  *Expander // direct-path scratch
	want []NodeState
}

func (cm *choiceCheckModel) wrap(e *Expander) *choiceCheckExpander {
	return &choiceCheckExpander{Expander: e, cm: cm, ref: cm.Model.newExpander()}
}

func (cm *choiceCheckModel) NewExpander() mc.Expander { return cm.wrap(cm.Model.newExpander()) }

func (cm *choiceCheckModel) NewReducedExpander() mc.CanonicalExpander {
	return cm.wrap(cm.Model.NewReducedExpander().(*Expander))
}

func (x *choiceCheckExpander) Successors(enc []byte) [][]byte {
	out := x.Expander.Successors(enc)
	m, r := x.m, x.ref
	m.decodeInto(enc, &r.s)
	nominal, sendersPresent := m.nominalContent(&r.s)
	r.fas = m.appendFaultAssignments(r.fas[:0], &r.s)
	x.cm.lookups.Add(int64(len(r.fas) * len(r.s.Nodes)))
	for fi := range r.fas {
		ch, activity := r.prepareChannels(fi, nominal, sendersPresent)
		o := outcome{ch: ch, activity: activity, chKey: channelKey(ch, m.cfg.Couplers, activity)}
		for i, n := range r.s.Nodes {
			own := uint8(i + 1)
			got := x.choicesFor(nodeWord(&n), own, &o)
			x.want = m.appendNodeChoices(x.want[:0], n, own, ch, activity)
			ok := int(got.n) == len(x.want)
			for j := 0; ok && j < len(x.want); j++ {
				ok = got.words[j] == nodeWord(&x.want[j])
			}
			if !ok && x.cm.bad.Add(1) <= 5 {
				x.cm.t.Errorf("node %d %+v under %+v activity=%v: table %x, direct %+v", own, n, ch, activity, got.words[:got.n], x.want)
			}
		}
	}
	return out
}

// TestChoiceTableMatchesDirect holds the choice table equal to the
// direct appendNodeChoices on every input reached by 4–6 node checks,
// reduced and oracle: the E1 matrix's four authorities at 4 nodes and
// small shifting at 5 and 6. The reduced 6-node check runs in full;
// oracle checks past 4 nodes stop at maxStates, and under the race
// detector or -short every check does.
func TestChoiceTableMatchesDirect(t *testing.T) {
	bounded := testing.Short() || raceEnabled
	type run struct {
		cfg       Config
		noReduce  bool
		maxStates int
	}
	var runs []run
	for _, a := range []guardian.Authority{guardian.AuthorityPassive, guardian.AuthorityTimeWindows,
		guardian.AuthoritySmallShift, guardian.AuthorityFullShift} {
		runs = append(runs, run{cfg: Config{Authority: a}, noReduce: true})
	}
	runs = append(runs,
		run{cfg: Config{Nodes: 4}},
		run{cfg: Config{Nodes: 5}},
		run{cfg: Config{Nodes: 5}, noReduce: true, maxStates: 300_000},
		run{cfg: Config{Nodes: 6}},
		run{cfg: Config{Nodes: 6}, noReduce: true, maxStates: 300_000},
	)
	for _, r := range runs {
		if bounded && (r.maxStates == 0 || r.maxStates > 20_000) && r.cfg.Nodes > 4 {
			r.maxStates = 20_000
		}
		m := mustModel(t, r.cfg)
		name := fmt.Sprintf("%dnodes-%v-noreduce=%v", m.cfg.Nodes, m.cfg.Authority, r.noReduce)
		t.Run(name, func(t *testing.T) {
			cm := &choiceCheckModel{Model: m, t: t}
			res, err := mc.CheckTransitionInvariantBytes(cm, cm.PropertyBytes(),
				mc.Options{Workers: 2, NoReduce: r.noReduce, MaxStates: r.maxStates})
			if err != nil && !(r.maxStates > 0 && errors.Is(err, mc.ErrStateLimit)) {
				t.Fatal(err)
			}
			if res.Reduced == r.noReduce {
				t.Fatalf("reduced=%v, want %v", res.Reduced, !r.noReduce)
			}
			if cm.lookups.Load() == 0 {
				t.Fatal("no choice lookups checked")
			}
			t.Logf("%d states, %d lookups checked", res.StatesExplored, cm.lookups.Load())
		})
	}
}
