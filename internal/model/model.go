// Package model is the paper's §4 formal model of the TTA star topology,
// transcribed from its SMV constraints: a slot-synchronous finite-state
// model of N TTP/C nodes, two redundant star couplers with fault modes, the
// big-bang cold-start rule, listen timeouts, and the clique-avoidance
// counters. One transition of the model corresponds to exactly one TDMA
// slot (§4.2).
//
// The model plugs into the explicit-state checker in internal/mc; the §5.1
// correctness property is exported as a transition invariant.
package model

import (
	"encoding/json"
	"fmt"
	"hash/fnv"
	"strings"
	"sync"

	"ttastar/internal/guardian"
	"ttastar/internal/mc"
)

// Phase is a node's protocol phase in the abstract model. The await, test
// and download states of the full controller are host-managed detours with
// no protocol behaviour; they are disabled by default (see DESIGN.md) and
// re-enabled by Config.AllowHostStates.
type Phase uint8

// The modeled protocol phases.
const (
	PhaseFreeze Phase = iota + 1
	PhaseInit
	PhaseListen
	PhaseColdStart
	PhaseActive
	PhasePassive
	PhaseAwait
	PhaseTest
	PhaseDownload
)

// String returns the paper's name for the phase.
func (p Phase) String() string {
	switch p {
	case PhaseFreeze:
		return "freeze"
	case PhaseInit:
		return "init"
	case PhaseListen:
		return "listen"
	case PhaseColdStart:
		return "cold_start"
	case PhaseActive:
		return "active"
	case PhasePassive:
		return "passive"
	case PhaseAwait:
		return "await"
	case PhaseTest:
		return "test"
	case PhaseDownload:
		return "download"
	default:
		return fmt.Sprintf("Phase(%d)", uint8(p))
	}
}

// Integrated reports whether the §5.1 property quantifies over this phase.
func (p Phase) Integrated() bool { return p == PhaseActive || p == PhasePassive }

// FrameKind is what a channel carries during one slot (§4.3's none,
// cold_start, c_state, bad_frame, other).
type FrameKind uint8

// Channel contents.
const (
	FrameNone FrameKind = iota + 1
	FrameColdStart
	FrameCState
	FrameOther
	FrameBad
)

// String returns the paper's name for the frame kind.
func (k FrameKind) String() string {
	switch k {
	case FrameNone:
		return "none"
	case FrameColdStart:
		return "cold_start"
	case FrameCState:
		return "c_state"
	case FrameOther:
		return "other"
	case FrameBad:
		return "bad_frame"
	default:
		return fmt.Sprintf("FrameKind(%d)", uint8(k))
	}
}

// Fault is a per-step coupler fault choice (§4.4).
type Fault uint8

// Coupler fault modes.
const (
	FaultNone Fault = iota + 1
	FaultSilence
	FaultBadFrame
	FaultOutOfSlot
)

// String returns the paper's name for the fault.
func (f Fault) String() string {
	switch f {
	case FaultNone:
		return "none"
	case FaultSilence:
		return "silence"
	case FaultBadFrame:
		return "bad_frame"
	case FaultOutOfSlot:
		return "out_of_slot"
	default:
		return fmt.Sprintf("Fault(%d)", uint8(f))
	}
}

// NumCouplers is the default number of redundant star couplers (channels)
// — the paper's cluster. Config.Couplers overrides it per model.
const NumCouplers = 2

// MaxCouplers bounds Config.Couplers: coupler buffer ids must fit the
// packed layout and State.Couplers is a fixed array sized for the worst
// case. Entries at or past a model's coupler count stay zero-valued.
const MaxCouplers = 3

// FaultSet is a bitmask over the injectable coupler fault modes; it
// expresses per-channel asymmetry (e.g. a silence-only channel A next to
// a full-fault channel B).
type FaultSet uint8

// FaultSet bits, one per injectable fault mode.
const (
	FaultSetSilence FaultSet = 1 << iota
	FaultSetBadFrame
	FaultSetOutOfSlot
)

// FaultSetAll permits every fault mode (subject to the authority gates).
const FaultSetAll = FaultSetSilence | FaultSetBadFrame | FaultSetOutOfSlot

// Allows reports whether the set permits injecting f.
func (fs FaultSet) Allows(f Fault) bool {
	switch f {
	case FaultSilence:
		return fs&FaultSetSilence != 0
	case FaultBadFrame:
		return fs&FaultSetBadFrame != 0
	case FaultOutOfSlot:
		return fs&FaultSetOutOfSlot != 0
	default:
		return f == FaultNone
	}
}

// String renders the set as a +-joined fault list ("silence+bad_frame"),
// "all" for the full set, or "none" for the empty one — the same syntax
// ParseFaultSet accepts.
func (fs FaultSet) String() string {
	if fs == 0 {
		return "none"
	}
	if fs&FaultSetAll == FaultSetAll {
		return "all"
	}
	s := ""
	for _, b := range [...]struct {
		bit  FaultSet
		name string
	}{{FaultSetSilence, "silence"}, {FaultSetBadFrame, "bad_frame"}, {FaultSetOutOfSlot, "out_of_slot"}} {
		if fs&b.bit != 0 {
			if s != "" {
				s += "+"
			}
			s += b.name
		}
	}
	return s
}

// ParseFaultSet parses a +-joined fault list in String's syntax.
func ParseFaultSet(s string) (FaultSet, error) {
	switch s {
	case "none":
		return 0, nil
	case "all":
		return FaultSetAll, nil
	}
	var fs FaultSet
	for len(s) > 0 {
		part := s
		if i := strings.IndexByte(s, '+'); i >= 0 {
			part, s = s[:i], s[i+1:]
		} else {
			s = ""
		}
		switch part {
		case "silence":
			fs |= FaultSetSilence
		case "bad_frame", "badframe":
			fs |= FaultSetBadFrame
		case "out_of_slot", "outofslot":
			fs |= FaultSetOutOfSlot
		default:
			return 0, fmt.Errorf("model: unknown fault mode %q (want silence, bad_frame, out_of_slot, all or none)", part)
		}
	}
	return fs, nil
}

// Config parameterizes the model.
type Config struct {
	// Nodes is the cluster size; node i owns slot i. Default 4 (the
	// paper's cluster), maximum 7 (listen timeouts must fit 4 bits).
	Nodes int
	// Couplers is the number of redundant star couplers (channels).
	// Default NumCouplers (2, the paper's cluster); range [1, MaxCouplers].
	// With a single coupler the model loses channel redundancy — and with
	// it the reduction quotient's fault-invisibility lemma, so 1-coupler
	// models always explore the concrete space.
	Couplers int
	// CouplerFaults, when non-nil, restricts the fault modes coupler c may
	// exhibit to CouplerFaults[c] — per-channel asymmetry, e.g. a
	// silence-only channel next to a full-fault one. Must have exactly
	// Couplers entries; a zero set makes that coupler fault-free. nil
	// permits every mode on every coupler (subject to the authority
	// gates, which still apply on top of the mask).
	CouplerFaults []FaultSet
	// Authority is the couplers' feature set. Out-of-slot faults exist
	// only for full-shifting couplers; the other §4.4 faults exist for
	// every feature set.
	Authority guardian.Authority
	// MaxOutOfSlot, when positive, bounds the total number of out-of-slot
	// fault occurrences — the constraint the paper adds to obtain its
	// first published trace.
	MaxOutOfSlot int
	// NoColdStartReplay forbids replaying buffered cold-start frames — the
	// constraint the paper adds to obtain its second trace (a duplicated
	// C-state frame).
	NoColdStartReplay bool
	// AllowInitFreeze re-enables the paper's init → freeze detour
	// (default off; it only enlarges the state space).
	AllowInitFreeze bool
	// AllowHostStates re-enables the paper's freeze → {await, test}
	// detours and the await → download path. These host-managed states
	// have no protocol behaviour; they are off by default because they
	// only enlarge the state space (DESIGN.md §4).
	AllowHostStates bool
	// DataSlots lists slots whose owner sends frames *without* explicit
	// C-state ("other" in §4.3) when active — N-frame slots. Listening
	// nodes cannot integrate on them (but they do reset the listen
	// timeout). Slots not listed carry C-state frames.
	DataSlots []int
	// DisableBigBang removes the big-bang rule: listening nodes integrate
	// on the *first* cold-start frame. An ablation of the startup
	// algorithm's defence; see the ablation tests for what it does and
	// does not protect against within this fault model.
	DisableBigBang bool
}

func (c Config) withDefaults() Config {
	if c.Nodes == 0 {
		c.Nodes = 4
	}
	if c.Couplers == 0 {
		c.Couplers = NumCouplers
	}
	if c.Authority == 0 {
		c.Authority = guardian.AuthoritySmallShift
	}
	return c
}

// NodeState is one node's state variables (§4.3).
type NodeState struct {
	Phase   Phase
	Slot    uint8 // current TDMA slot (1..N); 0 when not operational
	Agreed  uint8 // agreed_slots_counter
	Failed  uint8 // failed_slots_counter
	BigBang bool  // a cold-start frame was seen while in listen
	Timeout uint8 // listen_timeout in slots
}

// CouplerState is one star coupler's state variables (§4.4).
type CouplerState struct {
	BufferedID   uint8     // buffered_id: sender slot of the last frame
	BufferedKind FrameKind // buffered_frame
}

// State is the full model state. Couplers is sized for the largest
// configuration; entries at or past the model's coupler count are
// zero-valued and never encoded.
type State struct {
	Nodes         []NodeState
	Couplers      [MaxCouplers]CouplerState
	OutOfSlotUsed uint8 // tracked only when MaxOutOfSlot > 0
}

// Model is the checkable transition system.
type Model struct {
	cfg Config
	// expanders pools per-call Expander scratch for the public
	// Successors/Explain wrappers; the checker bypasses it and holds one
	// Expander per worker via NewExpander.
	expanders sync.Pool
}

var _ mc.ExpanderModel = (*Model)(nil)

// New builds a model from cfg.
func New(cfg Config) (*Model, error) {
	cfg = cfg.withDefaults()
	if cfg.Nodes < 2 || cfg.Nodes > 7 {
		return nil, fmt.Errorf("model: %d nodes outside [2,7]", cfg.Nodes)
	}
	if cfg.Couplers < 1 || cfg.Couplers > MaxCouplers {
		return nil, fmt.Errorf("model: %d couplers outside [1,%d]", cfg.Couplers, MaxCouplers)
	}
	if cfg.CouplerFaults != nil && len(cfg.CouplerFaults) != cfg.Couplers {
		return nil, fmt.Errorf("model: %d coupler fault sets for %d couplers", len(cfg.CouplerFaults), cfg.Couplers)
	}
	for _, fs := range cfg.CouplerFaults {
		if fs&^FaultSetAll != 0 {
			return nil, fmt.Errorf("model: unknown bits in coupler fault set %#x", uint8(fs))
		}
	}
	if cfg.Authority < guardian.AuthorityPassive || cfg.Authority > guardian.AuthorityFullShift {
		return nil, fmt.Errorf("model: unknown authority %d", cfg.Authority)
	}
	for _, s := range cfg.DataSlots {
		if s < 1 || s > cfg.Nodes {
			return nil, fmt.Errorf("model: data slot %d outside [1,%d]", s, cfg.Nodes)
		}
	}
	m := &Model{cfg: cfg}
	m.expanders.New = func() any { return m.newExpander() }
	return m, nil
}

// Config returns the model's configuration (with defaults applied).
func (m *Model) Config() Config { return m.cfg }

// Encode serializes a state canonically — the packed binary layout of
// EncodeBinary, interned directly as the checker's visited-set key.
func (m *Model) Encode(s State) mc.State { return m.EncodeBinary(s) }

// Decode parses a canonical state encoding.
func (m *Model) Decode(enc mc.State) State { return m.DecodeBinary(enc) }

// Initial implements mc.Model: all nodes frozen, couplers empty (§4.3:
// "Initially, all nodes are in the freeze state").
func (m *Model) Initial() []mc.State {
	s := State{Nodes: make([]NodeState, m.cfg.Nodes)}
	for i := range s.Nodes {
		s.Nodes[i] = NodeState{Phase: PhaseFreeze}
	}
	for c := 0; c < m.cfg.Couplers; c++ {
		s.Couplers[c] = CouplerState{BufferedKind: FrameNone}
	}
	return []mc.State{m.Encode(s)}
}

// Property is the §5.1 correctness criterion as a transition invariant: no
// node in active or passive may move to freeze. (Nodes are modeled not to
// fail, so any such freeze is caused by the single modeled coupler fault.)
func (m *Model) Property() mc.TransitionInvariant {
	return func(from, to mc.State) bool {
		f := m.Decode(from)
		t := m.Decode(to)
		for i := range f.Nodes {
			if f.Nodes[i].Phase.Integrated() && t.Nodes[i].Phase == PhaseFreeze {
				return false
			}
		}
		return true
	}
}

// couplerAllows reports whether coupler c's fault mask permits injecting
// f; with no masks configured every mode is permitted.
func (m *Model) couplerAllows(c int, f Fault) bool {
	if m.cfg.CouplerFaults == nil {
		return true
	}
	return m.cfg.CouplerFaults[c].Allows(f)
}

// DistSpec identifies the model across process boundaries for the
// distributed checker (internal/dist): a registered builder name plus
// the JSON of the defaulted configuration. A worker process rebuilds a
// model with the identical packed encoding, transition relation and
// fingerprint from these two strings alone.
func (m *Model) DistSpec() (name, payload string) {
	b, err := json.Marshal(m.cfg)
	if err != nil {
		// Config is a plain struct of ints, bools and int slices; this
		// cannot fail for a constructed model.
		panic(fmt.Sprintf("model: encoding config: %v", err))
	}
	return "tta", string(b)
}

// Fingerprint implements mc.FingerprintedModel: a digest of everything
// that determines the packed encoding and the transition relation —
// nodes, couplers, authority, the option bits, the data-slot set and the
// per-coupler fault masks. Two models agree on it exactly when a
// checkpoint written against one can be resumed against the other.
func (m *Model) Fingerprint() uint64 {
	h := fnv.New64a()
	var b []byte
	b = append(b, "ttastar/model\x00"...)
	b = append(b, byte(m.cfg.Nodes), byte(m.cfg.Couplers), byte(m.cfg.Authority), byte(m.cfg.MaxOutOfSlot))
	opts := byte(0)
	if m.cfg.NoColdStartReplay {
		opts |= 1
	}
	if m.cfg.AllowInitFreeze {
		opts |= 2
	}
	if m.cfg.AllowHostStates {
		opts |= 4
	}
	if m.cfg.DisableBigBang {
		opts |= 8
	}
	b = append(b, opts, byte(len(m.cfg.DataSlots)))
	for _, s := range m.cfg.DataSlots {
		b = append(b, byte(s))
	}
	if m.cfg.CouplerFaults == nil {
		b = append(b, 0xFF)
	} else {
		b = append(b, byte(len(m.cfg.CouplerFaults)))
		for _, fs := range m.cfg.CouplerFaults {
			b = append(b, byte(fs))
		}
	}
	h.Write(b)
	fp := h.Sum64()
	if fp == 0 {
		fp = 1 // zero is the "unknown fingerprint" sentinel in checkpoints
	}
	return fp
}

// PropertyBytes is Property over raw packed encodings: it reads each
// node's phase nibble straight out of the encoding, so evaluating it per
// transition decodes nothing and allocates nothing. Equivalent to
// Property for all valid encodings (asserted by the model tests).
func (m *Model) PropertyBytes() mc.TransitionInvariantBytes {
	nodes := m.cfg.Nodes
	return func(from, to []byte) bool {
		for i := 0; i < nodes; i++ {
			f := Phase(phaseBits(from, i))
			if f.Integrated() && Phase(phaseBits(to, i)) == PhaseFreeze {
				return false
			}
		}
		return true
	}
}
