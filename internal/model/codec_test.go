package model

import (
	"testing"
	"testing/quick"

	"ttastar/internal/guardian"
	"ttastar/internal/mc"
)

// EncodeString is the original byte-per-field codec (one byte per packed
// field pair, 3·N+3 bytes for N nodes) that the packed layout replaced,
// kept here as an independent oracle for the binary codec's round-trip
// tests.
func (m *Model) EncodeString(s State) mc.State {
	buf := make([]byte, 0, 3*m.cfg.Nodes+m.cfg.Couplers+1)
	for _, n := range s.Nodes {
		bb := byte(0)
		if n.BigBang {
			bb = 1
		}
		buf = append(buf,
			byte(n.Phase)<<4|bb<<3|0, // phase(4) | bigbang(1) | pad
			n.Slot<<4|n.Agreed,
			n.Failed<<4|n.Timeout,
		)
	}
	for _, c := range s.Couplers[:m.cfg.Couplers] {
		buf = append(buf, byte(c.BufferedKind)<<4|c.BufferedID)
	}
	buf = append(buf, s.OutOfSlotUsed)
	return mc.State(buf)
}

// DecodeString is the inverse of EncodeString.
func (m *Model) DecodeString(enc mc.State) State {
	b := []byte(enc)
	s := State{Nodes: make([]NodeState, m.cfg.Nodes)}
	for i := 0; i < m.cfg.Nodes; i++ {
		o := 3 * i
		s.Nodes[i] = NodeState{
			Phase:   Phase(b[o] >> 4),
			BigBang: b[o]>>3&1 == 1,
			Slot:    b[o+1] >> 4,
			Agreed:  b[o+1] & 0xF,
			Failed:  b[o+2] >> 4,
			Timeout: b[o+2] & 0xF,
		}
	}
	for c := 0; c < m.cfg.Couplers; c++ {
		v := b[3*m.cfg.Nodes+c]
		s.Couplers[c] = CouplerState{BufferedKind: FrameKind(v >> 4), BufferedID: v & 0xF}
	}
	s.OutOfSlotUsed = b[len(b)-1]
	return s
}

// randomState builds a State from raw fuzz inputs, reduced into the field
// ranges the model can actually produce (Config validation bounds).
func randomState(nodes int, phases, slots, agreed, failed, timeout []uint8, bb []bool,
	bufID, bufKind [NumCouplers]uint8, oos uint8) State {
	s := State{Nodes: make([]NodeState, nodes)}
	for i := 0; i < nodes; i++ {
		s.Nodes[i] = NodeState{
			Phase:   Phase(1 + phases[i]%9),
			Slot:    slots[i] % uint8(nodes+1),
			Agreed:  agreed[i] % 16,
			Failed:  failed[i] % 16,
			BigBang: bb[i],
			Timeout: timeout[i] % uint8(2*nodes+1),
		}
	}
	for c := 0; c < NumCouplers; c++ {
		s.Couplers[c] = CouplerState{
			BufferedID:   bufID[c] % uint8(nodes+1),
			BufferedKind: FrameKind(1 + bufKind[c]%5),
		}
	}
	s.OutOfSlotUsed = oos
	return s
}

func statesEqual(a, b State) bool {
	if len(a.Nodes) != len(b.Nodes) || a.Couplers != b.Couplers || a.OutOfSlotUsed != b.OutOfSlotUsed {
		return false
	}
	for i := range a.Nodes {
		if a.Nodes[i] != b.Nodes[i] {
			return false
		}
	}
	return true
}

// TestMCBinaryCodecRoundTrip fuzzes the packed binary codec against the
// original byte-per-field codec: both must round-trip every representable
// state identically, and the binary form must be the fixed width the
// layout promises.
func TestMCBinaryCodecRoundTrip(t *testing.T) {
	for _, nodes := range []int{2, 4, 7} {
		m := mustModel(t, Config{Nodes: nodes})
		wantLen := binarySize(nodes, NumCouplers)
		f := func(phases, slots, agreed, failed, timeout [7]uint8, bb [7]bool,
			bufID, bufKind [NumCouplers]uint8, oos uint8) bool {
			s := randomState(nodes, phases[:], slots[:], agreed[:], failed[:], timeout[:], bb[:], bufID, bufKind, oos)
			enc := m.EncodeBinary(s)
			if len(enc) != wantLen {
				t.Errorf("%d nodes: EncodeBinary width %d, want %d", nodes, len(enc), wantLen)
				return false
			}
			// Binary round-trip, and agreement with the string-codec oracle.
			return statesEqual(m.DecodeBinary(enc), s) &&
				statesEqual(m.DecodeString(m.EncodeString(s)), s) &&
				statesEqual(m.DecodeBinary(enc), m.DecodeString(m.EncodeString(s)))
		}
		if err := quick.Check(f, &quick.Config{MaxCount: 400}); err != nil {
			t.Errorf("%d nodes: %v", nodes, err)
		}
	}
}

// TestMCBinaryCodecInjective: distinct states must never collide in the
// packed encoding — the visited set dedupes on it.
func TestMCBinaryCodecInjective(t *testing.T) {
	m := mustModel(t, Config{})
	seen := make(map[mc.State]State)
	count := 0
	f := func(phases, slots, agreed, failed, timeout [7]uint8, bb [7]bool,
		bufID, bufKind [NumCouplers]uint8, oos uint8) bool {
		s := randomState(4, phases[:], slots[:], agreed[:], failed[:], timeout[:], bb[:], bufID, bufKind, oos)
		enc := m.EncodeBinary(s)
		if prev, ok := seen[enc]; ok && !statesEqual(prev, s) {
			t.Errorf("collision: %+v and %+v share %q", prev, s, enc)
			return false
		}
		seen[enc] = s
		count++
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 1000}); err != nil {
		t.Error(err)
	}
	if count == 0 {
		t.Fatal("no states generated")
	}
}

// TestParallelE1MatrixEquivalence is the §5.2 matrix checked at 1, 2 and
// 8 exploration workers: verdicts, state counts, transition counts and
// counterexample lengths must be identical for every coupler authority —
// the level-synchronous engine's determinism guarantee on the real model.
func TestParallelE1MatrixEquivalence(t *testing.T) {
	authorities := []guardian.Authority{
		guardian.AuthorityPassive,
		guardian.AuthorityTimeWindows,
		guardian.AuthoritySmallShift,
		guardian.AuthorityFullShift,
	}
	if testing.Short() {
		// The three holds-rows explore identical spaces; keep one.
		authorities = []guardian.Authority{guardian.AuthoritySmallShift, guardian.AuthorityFullShift}
	}
	for _, a := range authorities {
		m := mustModel(t, Config{Authority: a})
		var ref mc.Result
		for i, workers := range []int{1, 2, 8} {
			res, err := mc.CheckTransitionInvariant(m, m.Property(), mc.Options{Workers: workers})
			if err != nil {
				t.Fatalf("%v workers=%d: %v", a, workers, err)
			}
			if i == 0 {
				ref = res
				if res.Holds != (a != guardian.AuthorityFullShift) {
					t.Errorf("%v: unexpected verdict %v", a, res.Holds)
				}
				continue
			}
			if res.Holds != ref.Holds ||
				res.StatesExplored != ref.StatesExplored ||
				res.TransitionsExplored != ref.TransitionsExplored ||
				res.Depth != ref.Depth ||
				len(res.Counterexample) != len(ref.Counterexample) {
				t.Errorf("%v workers=%d: %+v differs from serial %+v", a, workers, res, ref)
			}
			for j := range ref.Counterexample {
				if res.Counterexample[j] != ref.Counterexample[j] {
					t.Errorf("%v workers=%d: counterexample diverges at step %d", a, workers, j)
					break
				}
			}
		}
	}
}
