// Package mc is a small explicit-state model checker. It plays the role SMV
// plays in the paper: given a finite-state model (initial states plus a
// successor relation), it explores the reachable state space breadth-first,
// checks invariants, and reconstructs shortest counterexample traces.
//
// The paper's correctness criterion (§5.1) is a *transition* invariant —
// "a node in active or passive never moves to freeze" — so the checker
// verifies predicates over (from, to) state pairs as well as plain state
// invariants.
//
// Exploration is level-synchronous and parallel (see engine.go): each BFS
// generation is partitioned across Options.Workers goroutines over a
// sharded visited set, and per-level outcomes are reduced deterministically
// so verdicts, counts and counterexamples are byte-identical for any
// worker count.
package mc

import (
	"context"
	"errors"
	"fmt"
	"runtime"
	"time"
)

// State is an opaque, canonical encoding of one model state. Equal states
// must encode to equal strings.
type State string

// Model is a finite-state transition system.
type Model interface {
	// Initial returns the initial states.
	Initial() []State
	// Successors returns every state reachable from s in one transition.
	// It must be safe for concurrent calls on distinct states.
	Successors(s State) []State
}

// Expander is a per-worker successor generator with reusable scratch:
// Successors returns the packed encodings of enc's successors. The
// returned slice and the byte slices it holds are owned by the Expander
// and are valid only until the next call — callers must copy what they
// keep. Implementations need not be safe for concurrent use; the engine
// gives every exploration worker its own Expander.
type Expander interface {
	Successors(enc []byte) [][]byte
}

// ExpanderModel is an optional Model extension for models whose successor
// generation runs allocation-free against per-worker scratch. When a
// Model implements it, the engine expands frontiers through NewExpander
// instances instead of Successors; results are identical, only
// allocation behaviour changes.
type ExpanderModel interface {
	Model
	NewExpander() Expander
}

// CanonicalExpander is an Expander that can additionally rewrite an
// encoding in place to the canonical representative of its reduction
// equivalence class. Canonicalize must be idempotent and
// length-preserving, and — like Successors — may use the Expander's
// scratch, so it must not be called while a previous Successors result
// is still being read from another worker's buffers it aliases.
type CanonicalExpander interface {
	Expander
	Canonicalize(enc []byte)
}

// ReducibleModel is an optional ExpanderModel extension for models that
// define a sound state-space reduction: exploring only canonical
// representatives preserves transition-invariant verdicts for
// class-invariant predicates (ones that agree on every member of an
// equivalence class, such as the per-role §5.1 property).
//
// The engine applies the reduction only when checking a transition
// invariant with no state invariant (state invariants are evaluated per
// state, and a representative says nothing about the class members it
// shadows), only when Reducible reports the current configuration admits
// it, and never when Options.NoReduce asks for the oracle semantics.
type ReducibleModel interface {
	ExpanderModel
	// Reducible reports whether the reduction is sound for the model's
	// current configuration.
	Reducible() bool
	// NewReducedExpander returns a per-worker expander whose successor
	// filtering may work modulo the reduction, paired with the
	// canonicalizer the engine applies before claiming each successor.
	NewReducedExpander() CanonicalExpander
}

// FingerprintedModel is optionally implemented by models that can digest
// their configuration into a stable identity. The engine stamps the
// fingerprint into every checkpoint it writes and refuses to resume a
// checkpoint whose fingerprint differs from the current model's — the
// snapshot's packed encodings would otherwise silently decode as garbage.
// A fingerprint must be nonzero; zero is the "unknown" sentinel carried
// by models without one, and disables the check.
type FingerprintedModel interface {
	// Fingerprint digests everything that determines the state encoding
	// and the transition relation.
	Fingerprint() uint64
}

// FingerprintOf is m's fingerprint, or 0 when m has none.
func FingerprintOf(m Model) uint64 {
	if fm, ok := m.(FingerprintedModel); ok {
		return fm.Fingerprint()
	}
	return 0
}

// TransitionInvariant is a predicate over a transition; the checker
// searches for a reachable transition where it is false.
type TransitionInvariant func(from, to State) bool

// StateInvariant is a predicate over single states.
type StateInvariant func(s State) bool

// TransitionInvariantBytes is a TransitionInvariant over raw encodings.
// The engine evaluates it once per generated transition without
// materializing State strings, so implementations that probe the packed
// encoding directly keep the hot path allocation-free. The slices are
// scratch — valid only for the duration of the call.
type TransitionInvariantBytes func(from, to []byte) bool

// StateInvariantBytes is a StateInvariant over raw encodings; the same
// scratch rules as TransitionInvariantBytes apply.
type StateInvariantBytes func(enc []byte) bool

// Progress is a per-level observability snapshot handed to
// Options.Progress after each completed BFS generation.
type Progress struct {
	// Depth is the depth of the frontier just produced.
	Depth int
	// States is the number of distinct states visited so far.
	States int
	// Transitions is the number of transitions examined so far.
	Transitions int
	// Frontier is the size of the next frontier.
	Frontier int
}

// Options bound the exploration.
type Options struct {
	// MaxStates aborts the search once this many distinct states
	// (including the initial ones) have been admitted (0 = default of
	// 20 million). The budget is checked before insertion, so at most
	// MaxStates states are ever held.
	MaxStates int
	// MemBudget caps the visited set's resident memory in bytes (0 =
	// unlimited): entry slabs, probe indexes and the overflow intern
	// table, tracked exactly by the flat set's own accounting. The
	// budget is checked at level boundaries — where the footprint is a
	// deterministic function of the admitted state set, so a trip is
	// identical for any worker count — and trips the same degradation
	// path as MaxStates: ErrStateLimit, or FallbackWalks sampling when
	// configured.
	MemBudget int64
	// MaxDepth limits the BFS depth (0 = unbounded). With a depth limit
	// the verdict "holds" only covers traces up to that length.
	MaxDepth int
	// Workers is the number of goroutines that expand each BFS frontier
	// (0 = one per CPU). The verdict, StatesExplored,
	// TransitionsExplored, Depth and the counterexample are
	// byte-identical for any value; only wall-clock time changes.
	Workers int
	// Progress, when non-nil, is invoked after every completed BFS
	// level. It is called from the coordinating goroutine, never
	// concurrently.
	Progress func(Progress)
	// Context cancels the search cooperatively at BFS-generation
	// granularity (nil = never). A cancelled search returns the partial
	// Result accumulated so far with Interrupted set, wrapped in
	// ErrInterrupted — or ErrDeadline when the context's deadline
	// expired.
	Context context.Context
	// CheckpointPath, when non-empty, is where the search keeps a
	// resumable checkpoint: a manifest at this path plus the segment and
	// frontier files it lists, next to it (checkpoint.go). The in-process
	// engine closes a barrier there when the context interrupts it, and
	// additionally every CheckpointEvery completed levels; a distributed
	// backend closes one at every level barrier. The manifest and its files
	// are removed again when the search ends with a definite verdict, so a
	// stale checkpoint can never shadow a finished run; an Inconclusive
	// degraded verdict keeps them, so the search can be resumed with a
	// larger budget.
	CheckpointPath string
	// CheckpointEvery is the number of completed BFS levels between
	// the in-process engine's periodic checkpoints (0 = only on
	// interrupt). Each writes only the states sealed since the last one.
	CheckpointEvery int
	// ResumePath, when non-empty, restores the search from the
	// checkpoint whose manifest is at this path before exploring, on
	// either backend at any worker count, whichever wrote it. A missing
	// manifest is not an error — the search simply starts fresh — so
	// interrupt/resume loops need no existence checks. A resumed search
	// is byte-identical — verdict, StatesExplored, TransitionsExplored,
	// Depth and counterexample — to the uninterrupted run it was split
	// from, and its sealed tier is the one that run holds at the end. A
	// search that resumes and also checkpoints continues the resumed
	// chain, so CheckpointPath must then be in the same directory; a
	// distributed search, which checkpoints every level, resumed without
	// a CheckpointPath continues the chain at ResumePath.
	ResumePath string
	// FallbackWalks > 0 degrades an exhausted MaxStates budget into a
	// bounded random-walk sampling pass instead of an ErrStateLimit
	// failure: FallbackWalks seeded walks of at most FallbackDepth steps
	// search for a violation beyond the explored region. A found
	// violation is a genuine FAILS (the trace is real, though not
	// necessarily shortest); otherwise the Result is marked
	// Inconclusive.
	FallbackWalks int
	// FallbackDepth bounds each fallback walk (0 = 1024 steps).
	FallbackDepth int
	// FallbackSeed seeds the fallback walker's RNG stream.
	FallbackSeed uint64
	// NoReduce disables the state-space reduction for ReducibleModel
	// models — the oracle mode: every concrete state is explored, counts
	// and depths match the published enumeration exactly. It has no
	// effect on models without a reduction.
	NoReduce bool
	// noSeal disables the sealed visited-set tier: every admitted state
	// stays in a live 32-byte slot forever. It is the oracle the sealed
	// tier is tested against, set only by tests (export_test.go); a
	// search that also asks to checkpoint, resume or run under Dist is
	// refused.
	noSeal bool
	// Stats, when non-nil, receives a summary of the completed search —
	// throughput, allocation churn, peak frontier — from the coordinating
	// goroutine, after the Result is final. It is observability only:
	// enabling it never changes the Result.
	Stats func(Stats)
	// Dist, when non-nil, supplies the level backend the search runs on
	// (internal/dist's worker fleet) instead of the in-process visited
	// set. The engine's one search loop still drives it — admission,
	// budgets, interrupts, violation counting, Progress and Stats are
	// decided here either way — so verdicts, counts and counterexamples
	// are byte-identical to the in-process search's.
	Dist DistChecker
}

// DistChecker is the hook a distributed exploration backend plugs into
// Options.Dist. Keeping it an interface here (rather than importing the
// backend) leaves mc dependency-free: internal/dist imports mc, never
// the reverse.
type DistChecker interface {
	// NewBackend readies a backend for one search of m. Exactly one of
	// stInv and trInv is set; reduced tells whether the search explores
	// the model's reduction quotient (the engine's gate decides); resume,
	// when non-nil, is the checked chain the search continues from, whose
	// frontier the backend's first NextLevel returns; opts carry the
	// engine's defaults.
	NewBackend(m Model, stInv StateInvariantBytes, trInv TransitionInvariantBytes,
		reduced bool, resume *Chain, opts Options) (LevelBackend, error)
}

// LevelBackend stores a search's states and expands its levels; the
// engine's search loop (checkSearch) makes every decision around it.
// The in-process backend runs over the sharded visited set, and
// Options.Dist supplies others. Calls come from one goroutine, in
// order: AdmitInitial per initial state (none on a resume), then
// NextLevel, then Expand and NextLevel per level until the frontier is
// empty or the loop stops; Close always ends the search.
type LevelBackend interface {
	// AdmitInitial admits initial state i under claim key i; enc is
	// canonical already when the search is reduced. The backend may keep
	// enc.
	AdmitInitial(enc []byte, i int) ClaimStatus
	// Expand expands the whole frontier; base is the claim key of its
	// first slot's first successor. The whole level is expanded even
	// past a violation or a full store, because the min-key reduction
	// needs every key of the level.
	Expand(base uint64) (Level, error)
	// StatesBefore counts the admitted states whose final claim key is
	// below limit: every earlier level's plus the last expanded level's
	// lower-keyed claims.
	StatesBefore(limit uint64) int
	// Trace reconstructs the path from an initial state to the last
	// expanded level's winning violation: the violating state, or the
	// violating transition's target. A reduced search's trace runs
	// through canonical representatives.
	Trace() ([]State, error)
	// NextLevel makes the states admitted since the last call the
	// frontier and returns its length.
	NextLevel() (int, error)
	// States and Resident are the admitted state count and the resident
	// bytes Options.MemBudget is enforced against.
	States() int
	Resident() int64
	// Close releases the backend and, when st is non-nil, adds its own
	// counters to the search's Stats.
	Close(st *Stats)
}

// Level is one expanded BFS level.
type Level struct {
	// Counts holds the successor count of every frontier slot. It is
	// valid until the next Expand.
	Counts []int
	// Viol is the level's lowest-keyed violation; nil when there is none.
	Viol *Violation
	// Full is set when some claim found the state budget spent.
	Full bool
}

// Violation is a level's winning invariant violation.
type Violation struct {
	// Key is the violating successor's claim key.
	Key uint64
	// IsState marks a state-invariant violation (else a transition one).
	IsState bool
}

// Stats is the per-search observability summary handed to Options.Stats.
type Stats struct {
	// States and Transitions mirror the Result counters.
	States      int
	Transitions int
	// Levels is the number of completed BFS generations.
	Levels int
	// PeakFrontier is the largest frontier produced by any level.
	PeakFrontier int
	// Duration is the wall-clock search time.
	Duration time.Duration
	// StatesPerSec is States/Duration.
	StatesPerSec float64
	// Allocs and AllocBytes are the process-wide heap allocation deltas
	// across the search — a whole-process measure, exact only when
	// nothing else runs. Both derive from runtime.MemStats' monotonic
	// counters (Mallocs, TotalAlloc), never from HeapAlloc, so the
	// deltas cannot go negative when the GC runs mid-search.
	Allocs     uint64
	AllocBytes uint64
	// WireFrames and WireBytes total the protocol frames and bytes a
	// distributed backend put on the wire (control plus data plane);
	// both are zero for the in-process engine.
	WireFrames uint64
	WireBytes  uint64
	// LoadFactor is the visited set's final occupancy: admitted states
	// over total probe-index cells.
	LoadFactor float64
	// ProbeHist is the claim probe-length histogram over the live probe
	// index: ProbeHist[i] counts claims whose live-index probe took i+1
	// steps, with the last bucket holding everything at probeBuckets
	// steps or more. A claim that falls through to the sealed tier is
	// counted at its live-index probe length only (the steps up to the
	// empty cell); its sealed-tier probe and decode confirm are not
	// counted.
	ProbeHist [8]uint64
	// ResidentBytes is the visited set's exact resident footprint at
	// search end (live entry slabs + probe indexes + interned overflow +
	// the sealed tier + seal scratch); PeakResidentBytes is its
	// high-water mark, including the transients where an old and a grown
	// probe index are briefly both live. This is the number
	// Options.MemBudget is enforced against. The one deliberate
	// approximation: sealed arena slack capacity (bounded at ~25% by its
	// growth policy) is not counted — the counter tracks bytes in use,
	// which is also what survives a checkpoint round trip unchanged.
	// A distributed backend reports only ResidentBytes, as its workers'
	// sum at the last level barrier (equal to the engine's there); the
	// other visited-set fields stay zero.
	ResidentBytes     int64
	PeakResidentBytes int64
	// SealedStates is the number of visited states migrated into the
	// sealed tier (all states of levels that finished expanding).
	// SealedArenaBytes is their delta-compressed encoding arena (blob +
	// restart offsets); SealedIndexBytes the quotiented probe index over
	// them. Live states are States − SealedStates.
	SealedStates     int64
	SealedArenaBytes int64
	SealedIndexBytes int64
	// CheckpointRetries counts transient periodic-snapshot write
	// failures that a bounded-backoff retry absorbed.
	// CheckpointWriteErr is the final error of a periodic snapshot that
	// failed every attempt ("" when none did): the search continues
	// without that snapshot — an exhausted disk should not kill an
	// hours-long exploration — so the miss is surfaced here instead of
	// being dropped silently.
	CheckpointRetries  int
	CheckpointWriteErr string
}

// defaultMaxStates is the state budget applied when Options.MaxStates
// is zero.
const defaultMaxStates = 20_000_000

func (o Options) withDefaults() Options {
	if o.MaxStates == 0 {
		o.MaxStates = defaultMaxStates
	}
	if o.Workers < 1 {
		o.Workers = runtime.NumCPU()
	}
	if o.FallbackWalks > 0 && o.FallbackDepth == 0 {
		o.FallbackDepth = 1024
	}
	return o
}

// ErrStateLimit reports that the state budget was exhausted before the
// search completed.
var ErrStateLimit = errors.New("mc: state limit exceeded")

// ErrInterrupted reports that Options.Context was cancelled before the
// search completed; the returned Result holds everything explored so far
// and a checkpoint was written if Options.CheckpointPath is set.
var ErrInterrupted = errors.New("mc: search interrupted")

// ErrDeadline is the ErrInterrupted variant for a context whose deadline
// expired.
var ErrDeadline = errors.New("mc: search deadline exceeded")

// Result is the outcome of a check.
type Result struct {
	// Holds is true when no reachable violation exists (within MaxDepth,
	// if one was set).
	Holds bool
	// StatesExplored is the number of distinct states visited.
	StatesExplored int
	// TransitionsExplored is the number of transitions examined.
	TransitionsExplored int
	// Depth is the height of the explored BFS tree.
	Depth int
	// DepthBounded is set when MaxDepth cut the search off.
	DepthBounded bool
	// Interrupted is set when Options.Context cancelled the search: the
	// counts above cover only the levels completed before the cut.
	Interrupted bool
	// Inconclusive is set when the state budget ran out and the fallback
	// sampling pass found no violation: Holds then covers only the
	// explored and sampled portion of the state space.
	Inconclusive bool
	// SampledWalks and SampledDepth record the fallback sampling
	// coverage (zero unless the fallback ran).
	SampledWalks int
	SampledDepth int
	// Reduced is set when the search explored the model's reduction
	// quotient instead of the concrete space: StatesExplored,
	// TransitionsExplored and Depth then count canonical representatives.
	// The verdict is the same either way, and a counterexample is always
	// a concrete trace (decanonicalized when found in the quotient).
	Reduced bool
	// Counterexample is a shortest path of states from an initial state to
	// the violation (inclusive); empty when Holds. A counterexample found
	// by the fallback sampler is genuine but not necessarily shortest — as
	// is a decanonicalized one from a Reduced search.
	Counterexample []State
}

// String summarizes the result.
func (r Result) String() string {
	verdict := "HOLDS"
	switch {
	case !r.Holds:
		verdict = fmt.Sprintf("FAILS (counterexample length %d)", len(r.Counterexample))
	case r.Interrupted:
		verdict = fmt.Sprintf("INTERRUPTED (partial, depth %d)", r.Depth)
	case r.Inconclusive:
		verdict = fmt.Sprintf("INCONCLUSIVE (budget exhausted; %d walks ≤%d steps found no violation)",
			r.SampledWalks, r.SampledDepth)
	case r.DepthBounded:
		verdict = fmt.Sprintf("HOLDS (up to depth %d)", r.Depth)
	}
	return fmt.Sprintf("%s — %d states, %d transitions explored", verdict, r.StatesExplored, r.TransitionsExplored)
}

// CheckTransitionInvariant explores the reachable state space breadth-first
// and reports whether inv holds on every reachable transition. Because the
// search is breadth-first, a returned counterexample is of minimal length,
// like SMV's shortest error traces.
func CheckTransitionInvariant(m Model, inv TransitionInvariant, opts Options) (Result, error) {
	return check(m, nil, wrapTransitionInvariant(inv), opts)
}

// CheckInvariant explores the reachable state space and reports whether inv
// holds in every reachable state.
func CheckInvariant(m Model, inv StateInvariant, opts Options) (Result, error) {
	return check(m, wrapStateInvariant(inv), nil, opts)
}

// CheckTransitionInvariantBytes is CheckTransitionInvariant for an
// invariant over raw encodings — the allocation-free form of the hot
// path. Results are identical to the string form for equivalent
// predicates.
func CheckTransitionInvariantBytes(m Model, inv TransitionInvariantBytes, opts Options) (Result, error) {
	return check(m, nil, inv, opts)
}

// CheckInvariantBytes is CheckInvariant for an invariant over raw
// encodings.
func CheckInvariantBytes(m Model, inv StateInvariantBytes, opts Options) (Result, error) {
	return check(m, inv, nil, opts)
}

// wrapTransitionInvariant adapts a string-form invariant to the engine's
// byte-oriented hot path. The State conversions allocate; callers that
// care use the Bytes entry points directly.
func wrapTransitionInvariant(inv TransitionInvariant) TransitionInvariantBytes {
	if inv == nil {
		return nil
	}
	return func(from, to []byte) bool { return inv(State(from), State(to)) }
}

func wrapStateInvariant(inv StateInvariant) StateInvariantBytes {
	if inv == nil {
		return nil
	}
	return func(enc []byte) bool { return inv(State(enc)) }
}

// RandomWalker explores by seeded random simulation — a cheap falsification
// pass for models too large to exhaust.
type RandomWalker struct {
	// NextChoice returns a value in [0, n); a seeded RNG in practice.
	// It is only consulted for n >= 2 — the walker resolves empty and
	// singleton choice sets itself, so implementations never see n < 2.
	NextChoice func(n int) int
}

// choose picks an index in [0, len) without consulting NextChoice for
// degenerate choice sets: singleton sets (the common single-initial-state
// model) take the only element without burning a random draw, and empty
// sets can never reach a NextChoice(0) panic.
func (w RandomWalker) choose(n int) int {
	if n <= 1 {
		return 0
	}
	return w.NextChoice(n)
}

// Walk runs walks random walks of at most depth steps each, returning the
// first violating trace found, or nil.
func (w RandomWalker) Walk(m Model, inv TransitionInvariant, walks, depth int) []State {
	inits := m.Initial()
	if len(inits) == 0 {
		return nil
	}
	for i := 0; i < walks; i++ {
		s := inits[w.choose(len(inits))]
		trace := []State{s}
		for d := 0; d < depth; d++ {
			succs := m.Successors(s)
			if len(succs) == 0 {
				break
			}
			next := succs[w.choose(len(succs))]
			trace = append(trace, next)
			if !inv(s, next) {
				return trace
			}
			s = next
		}
	}
	return nil
}

// WalkState runs walks random walks of at most depth steps each against a
// state invariant, returning the first violating trace found, or nil.
// Unlike Walk's transition predicate, the invariant is also checked on the
// drawn initial state itself, so a violating initial state yields a
// one-state trace instead of going unnoticed.
func (w RandomWalker) WalkState(m Model, inv StateInvariant, walks, depth int) []State {
	inits := m.Initial()
	if len(inits) == 0 {
		return nil
	}
	for i := 0; i < walks; i++ {
		s := inits[w.choose(len(inits))]
		trace := []State{s}
		if !inv(s) {
			return trace
		}
		for d := 0; d < depth; d++ {
			succs := m.Successors(s)
			if len(succs) == 0 {
				break
			}
			next := succs[w.choose(len(succs))]
			trace = append(trace, next)
			if !inv(next) {
				return trace
			}
			s = next
		}
	}
	return nil
}
