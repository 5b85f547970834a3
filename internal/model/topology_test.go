package model

import (
	"context"
	"errors"
	"path/filepath"
	"testing"

	"ttastar/internal/guardian"
	"ttastar/internal/mc"
)

// Parameterized-topology coverage: coupler count and per-channel fault
// masks are model parameters, and the reduction quotient must stay an
// exact bisimulation at every non-default point it claims to cover.

func TestTopologyValidation(t *testing.T) {
	bad := []Config{
		{Nodes: 1},
		{Nodes: -1},
		{Nodes: 8},
		{Couplers: -1},
		{Couplers: 4},
		{Couplers: 2, CouplerFaults: []FaultSet{FaultSetAll}},              // len mismatch
		{Couplers: 1, CouplerFaults: []FaultSet{FaultSet(0x80)}},           // unknown bit
		{CouplerFaults: []FaultSet{FaultSetAll, FaultSetAll, FaultSetAll}}, // 3 masks vs default 2 couplers
	}
	for _, cfg := range bad {
		if _, err := New(cfg); err == nil {
			t.Errorf("New(%+v) accepted, want error", cfg)
		}
	}
	good := []Config{
		{},
		{Nodes: 7, Couplers: 3},
		{Couplers: 1},
		{Couplers: 3, CouplerFaults: []FaultSet{0, FaultSetSilence, FaultSetAll}},
	}
	for _, cfg := range good {
		if _, err := New(cfg); err != nil {
			t.Errorf("New(%+v): %v", cfg, err)
		}
	}
}

func TestFaultSetRoundTrip(t *testing.T) {
	for _, fs := range []FaultSet{0, FaultSetSilence, FaultSetBadFrame,
		FaultSetOutOfSlot, FaultSetSilence | FaultSetBadFrame, FaultSetAll} {
		back, err := ParseFaultSet(fs.String())
		if err != nil {
			t.Errorf("ParseFaultSet(%q): %v", fs.String(), err)
		}
		if back != fs {
			t.Errorf("round trip %q: got %v, want %v", fs.String(), back, fs)
		}
	}
	if _, err := ParseFaultSet("sos"); err == nil {
		t.Error("ParseFaultSet accepted an unknown mode")
	}
}

// TestReducedOracleEquivalenceNonDefaultTopology: at non-default coupler
// counts and under asymmetric fault masks, the quotient must agree with
// the oracle on the verdict while exploring no more states.
func TestReducedOracleEquivalenceNonDefaultTopology(t *testing.T) {
	if testing.Short() {
		t.Skip("exhaustive dual searches")
	}
	cases := []struct {
		name string
		cfg  Config
	}{
		{"3n3c", Config{Nodes: 3, Couplers: 3}},
		{"3n2c-asymmetric", Config{Nodes: 3, CouplerFaults: []FaultSet{FaultSetSilence, FaultSetAll}}},
		{"4n3c-masked", Config{Nodes: 4, Couplers: 3,
			CouplerFaults: []FaultSet{FaultSetAll, FaultSetSilence | FaultSetBadFrame, FaultSetSilence}}},
	}
	for _, tc := range cases {
		m, err := New(tc.cfg)
		if err != nil {
			t.Fatalf("%s: %v", tc.name, err)
		}
		if !m.Reducible() {
			t.Fatalf("%s: expected a reducible configuration", tc.name)
		}
		reduced, err := mc.CheckTransitionInvariantBytes(m, m.PropertyBytes(), mc.Options{})
		if err != nil {
			t.Fatalf("%s reduced: %v", tc.name, err)
		}
		oracle, err := mc.CheckTransitionInvariantBytes(m, m.PropertyBytes(), mc.Options{NoReduce: true})
		if err != nil {
			t.Fatalf("%s oracle: %v", tc.name, err)
		}
		if reduced.Holds != oracle.Holds {
			t.Errorf("%s: verdict flipped: reduced=%v oracle=%v", tc.name, reduced.Holds, oracle.Holds)
		}
		if reduced.StatesExplored > oracle.StatesExplored {
			t.Errorf("%s: reduced explored %d states > oracle %d", tc.name,
				reduced.StatesExplored, oracle.StatesExplored)
		}
		t.Logf("%s: reduced %d/%d oracle %d/%d", tc.name,
			reduced.StatesExplored, reduced.TransitionsExplored,
			oracle.StatesExplored, oracle.TransitionsExplored)
	}
}

// TestSingleCouplerNotReducible: the fault-invisibility lemma needs a
// redundant channel; a 1-coupler model must run concrete.
func TestSingleCouplerNotReducible(t *testing.T) {
	m, err := New(Config{Couplers: 1})
	if err != nil {
		t.Fatal(err)
	}
	if m.Reducible() {
		t.Error("1-coupler model claims reducible")
	}
}

// TestCouplerMaskRestrictsFaults: a zero mask keeps a coupler fault-free;
// AllowedFaults reflects the union over couplers.
func TestCouplerMaskRestrictsFaults(t *testing.T) {
	m, err := New(Config{CouplerFaults: []FaultSet{0, FaultSetSilence}})
	if err != nil {
		t.Fatal(err)
	}
	faults := m.AllowedFaults()
	if len(faults) != 2 || faults[0] != FaultNone || faults[1] != FaultSilence {
		t.Errorf("AllowedFaults() = %v, want [none silence]", faults)
	}
}

// TestFingerprintDistinguishesTopologies: the fingerprint must separate
// every configuration axis that changes the packed encoding or the
// reachable space, and be stable for equal configurations.
func TestFingerprintDistinguishesTopologies(t *testing.T) {
	base := Config{}
	variants := []Config{
		{Nodes: 5},
		{Couplers: 3},
		{Couplers: 1},
		{Authority: guardian.AuthorityFullShift},
		{MaxOutOfSlot: 1},
		{NoColdStartReplay: true},
		{CouplerFaults: []FaultSet{FaultSetSilence, FaultSetAll}},
	}
	mb, err := New(base)
	if err != nil {
		t.Fatal(err)
	}
	mb2, _ := New(Config{Nodes: 4, Couplers: 2})
	if mb.Fingerprint() != mb2.Fingerprint() {
		t.Error("equal configurations fingerprint differently")
	}
	if mb.Fingerprint() == 0 {
		t.Error("fingerprint is zero")
	}
	seen := map[uint64]string{mb.Fingerprint(): "default"}
	for _, cfg := range variants {
		m, err := New(cfg)
		if err != nil {
			t.Fatalf("New(%+v): %v", cfg, err)
		}
		fp := m.Fingerprint()
		if prev, dup := seen[fp]; dup {
			t.Errorf("config %+v collides with %s", cfg, prev)
		}
		seen[fp] = "variant"
	}
}

// TestResumeTopologyMismatch is the end-to-end bugfix regression: a
// checkpoint taken under one topology refuses to resume under another
// with the typed mc.ErrModelMismatch instead of decoding garbage.
func TestResumeTopologyMismatch(t *testing.T) {
	path := filepath.Join(t.TempDir(), "cp")
	m4, err := New(Config{})
	if err != nil {
		t.Fatal(err)
	}
	ctx, cancel := context.WithCancel(context.Background())
	levels := 0
	_, err = mc.CheckTransitionInvariantBytes(m4, m4.PropertyBytes(), mc.Options{
		Context:        ctx,
		CheckpointPath: path,
		Progress: func(mc.Progress) {
			levels++
			if levels == 3 {
				cancel()
			}
		},
	})
	cancel()
	if !errors.Is(err, mc.ErrInterrupted) {
		t.Fatalf("interrupted run: got %v, want ErrInterrupted", err)
	}
	m5, err := New(Config{Nodes: 5})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := mc.CheckTransitionInvariantBytes(m5, m5.PropertyBytes(), mc.Options{ResumePath: path}); !errors.Is(err, mc.ErrModelMismatch) {
		t.Fatalf("5-node resume of a 4-node checkpoint: got %v, want ErrModelMismatch", err)
	}
	m3c, err := New(Config{Couplers: 3})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := mc.CheckTransitionInvariantBytes(m3c, m3c.PropertyBytes(), mc.Options{ResumePath: path}); !errors.Is(err, mc.ErrModelMismatch) {
		t.Fatalf("3-coupler resume of a 2-coupler checkpoint: got %v, want ErrModelMismatch", err)
	}
	// The matching topology still resumes and completes.
	res, err := mc.CheckTransitionInvariantBytes(m4, m4.PropertyBytes(), mc.Options{ResumePath: path})
	if err != nil {
		t.Fatalf("matched resume: %v", err)
	}
	if !res.Holds {
		t.Error("resumed default-topology check does not hold")
	}
}
