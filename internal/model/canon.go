package model

// State-space reduction: a canonical representative function over the
// packed encoding, plus the reduced Expander mode that pairs with it.
//
// The §5.1 property is per-role — it reads node phases only — and for
// every coupler authority except full shifting the model's state carries
// components that provably cannot influence any phase a node will ever
// reach. The canonicalizer maps each state to a fixed representative of
// its equivalence class; the checker then explores the quotient instead
// of the concrete space. Three collapses compose (soundness argument in
// DESIGN.md "State-space reduction"):
//
//  1. Dead coupler tail. The buffered frame and out-of-slot counter are
//     read only by the out-of-slot replay fault, which exists only for
//     full-shifting couplers (guardian.CanBufferFrames). Under every
//     other authority the tail is write-only state: reset it to the
//     empty value.
//  2. Freeze → init collapse. A frozen node's only choices are to stay
//     frozen or re-initialize; an init node may stay or enter listen.
//     Both are silent (no frames, no influence on other nodes), and
//     every behaviour available from freeze is available from init one
//     step sooner. Mapping freeze records to fresh init records yields a
//     quotient whose successor images are exactly preserved.
//  3. Deterministic fast-forward. In a state where every node is in
//     listen or cold_start, every permitted fault assignment produces
//     the same successor modulo the dead tail: a single faulty coupler
//     cannot suppress a cold-start frame (the other channel still
//     carries it), listeners ignore bad frames, and a bad frame on a
//     silent bus is judged null. The masked successor chain is therefore
//     a deterministic stutter sequence, and the whole chain collapses to
//     a single representative: the last all-{listen, cold_start} state
//     when the chain exits the region — the exit transition is left to
//     the checker, so property checks on it are unaffected — or, when
//     the chain never exits, the minimal-encoding state of the cycle it
//     settles into (such silent livelocks are real: N simultaneous cold
//     starters collide every round and rotate forever). Either way no
//     state inside the chain has an integrated node, so the §5.1
//     property is vacuous across everything skipped.
//
// The quotient is valid only when the coupler tail is dead and the
// phase graph has no host-state detours (a freeze → await/test choice
// has no init counterpart); Reducible gates on exactly that. The
// reduction preserves verdicts and — via the checker's decanonicalization
// pass — concrete counterexample traces; it does not preserve BFS depth
// (fast-forwarding collapses startup time), which is why the published
// E1 matrix numbers are reported in oracle mode.

import (
	"encoding/binary"
	"fmt"

	"ttastar/internal/mc"
)

var _ mc.ReducibleModel = (*Model)(nil)

// Reducible implements mc.ReducibleModel: the quotient applies when the
// coupler tail is dead (no out-of-slot replay, so no authority below
// full shifting ever reads its buffers), the host-state detours are
// off (freeze → await/test has no init-side counterpart, so the
// freeze → init collapse would lose behaviours), and at least two
// redundant channels exist — the fast-forward fault-invisibility lemma
// needs a second coupler to carry the frame a single faulty coupler
// suppresses, so 1-coupler models always explore the concrete space.
func (m *Model) Reducible() bool {
	return !m.cfg.Authority.CanBufferFrames() && !m.cfg.AllowHostStates && m.cfg.Couplers >= 2
}

// NewReducedExpander implements mc.ReducibleModel: a per-worker expander
// whose fault-assignment filter works modulo the reduction's observable
// projection, paired with the in-place canonicalizer. Successor
// enumeration itself stays concrete — the engine checks the invariant on
// raw successors first and canonicalizes before claiming. Only here, and
// only for a Reducible configuration, does an expander get its
// fast-forward memo: one per worker per search, never shared.
func (m *Model) NewReducedExpander() mc.CanonicalExpander {
	e := m.newExpander()
	e.reduce = m.Reducible()
	if e.reduce {
		e.memo = make([]ffEntry, ffMemoSize)
	}
	return e
}

// Canonicalize returns the canonical representative of enc's reduction
// class; enc itself when the configuration is not Reducible. It is the
// allocating convenience form of Expander.Canonicalize for tests and
// trace tooling; its pooled expanders carry no memo, so every call walks
// its chain in full.
func (m *Model) Canonicalize(enc mc.State) mc.State {
	e := m.expanders.Get().(*Expander)
	buf := append(make([]byte, 0, len(enc)), enc...)
	e.Canonicalize(buf)
	m.expanders.Put(e)
	return mc.State(buf)
}

// ffCap bounds the fast-forward chain walk. Reachable silent chains are
// short — a full listen-timeout countdown plus a couple of cold-start
// rounds, well under a hundred slots — but the walk must terminate on
// any input bytes, and truncating merely yields a finer (still sound)
// quotient: the truncated representative is still a deterministic
// function of the input state.
const ffCap = 1024

// ffMemoBits sizes the fast-forward memo: 2^12 direct-mapped entries of
// 56 bytes, about 229 KB per reduced expander. The table must stay
// cache-resident — on the 6-node quotient a 2^16-entry table ran slower
// and added ~24 MB of peak RSS — and a reachable walk revisits a small
// working set of chains, so a fixed size is not a tuning knob. On the
// reduced 6-node check 40.2 % of the in-region calls hit at the top
// level, against a ceiling of 45.5 %: only that share of the 2.7 M
// in-region inputs repeats at all, so no larger table could win much.
const (
	ffMemoBits = 12
	ffMemoSize = 1 << ffMemoBits
)

// ffKey is a packed encoding held as three big-endian words of its
// zero-padded candBytes form. Word order and in-word bit order both
// follow the byte string, so key equality is byte equality and
// lexicographic word order is bytes.Compare order.
type ffKey [candBytes / 8]uint64

// loadKey reads a packed encoding of at most candBytes bytes.
func loadKey(enc []byte) ffKey {
	var p [candBytes]byte
	copy(p[:], enc)
	return ffKey{
		binary.BigEndian.Uint64(p[0:8]),
		binary.BigEndian.Uint64(p[8:16]),
		binary.BigEndian.Uint64(p[16:24]),
	}
}

// store writes the key's leading len(enc) bytes into enc.
func (k ffKey) store(enc []byte) {
	var p [candBytes]byte
	binary.BigEndian.PutUint64(p[0:8], k[0])
	binary.BigEndian.PutUint64(p[8:16], k[1])
	binary.BigEndian.PutUint64(p[16:24], k[2])
	copy(enc, p[:])
}

// storeAll writes all candBytes bytes of the key into enc.
func (k ffKey) storeAll(enc []byte) {
	binary.BigEndian.PutUint64(enc[0:8], k[0])
	binary.BigEndian.PutUint64(enc[8:16], k[1])
	binary.BigEndian.PutUint64(enc[16:24], k[2])
}

// less orders keys as bytes.Compare orders their encodings.
func (k ffKey) less(o ffKey) bool {
	if k[0] != o[0] {
		return k[0] < o[0]
	}
	if k[1] != o[1] {
		return k[1] < o[1]
	}
	return k[2] < o[2]
}

// hash mixes the key into a memo index.
func (k ffKey) hash() uint64 { return mix3(k[0], k[1], k[2]) }

// ffEntry memoizes one exiting chain walk: the chain from key leaves the
// all-{listen, cold_start} region dist steps later, at rep — the last
// state inside. The zero key never occurs (a memoized state's first
// phase is listen or cold_start), so a zero entry is empty.
type ffEntry struct {
	key, rep ffKey
	dist     uint32
}

// Canonicalize rewrites enc in place to its class representative,
// working on the packed bytes. Phases are read in place, a freeze
// record is overwritten with the init record, and every bit past the
// node records is overwritten with the empty tail (FrameNone couplers,
// zero out-of-slot counter, zero padding). Only an all-{listen,
// cold_start} state needs more: its deterministic chain is looked up in
// the memo and, on a miss, walked on the packed key (silentStep).
//
// The memo is a pure cache. Keys are whole encodings, entries record
// exiting walks only, and a hit is taken only when it lands where the
// capped walk would (steps so far + dist <= ffCap), so the result is the
// same whatever the table holds — and so for every worker count. Like
// Successors it performs no steady-state allocation; enc must not alias
// a state the caller still needs in concrete form. It reads and writes
// only enc, the memo and the walk's path, never the expansion scratch,
// so it may rewrite the encodings the last Successors call returned in
// place.
func (e *Expander) Canonicalize(enc []byte) {
	if !e.m.Reducible() {
		return
	}
	if len(enc) != e.size {
		panic(fmt.Sprintf("model: binary state is %d bytes, want %d", len(enc), e.size))
	}
	n := len(e.s.Nodes)
	allLC := true
	for i := 0; i < n; i++ {
		switch Phase(phaseBits(enc, i)) {
		case PhaseFreeze:
			setInitRecord(enc, i)
			allLC = false
		case PhaseListen, PhaseColdStart:
		default:
			allLC = false
		}
	}
	b := bitsPerNode * n >> 3
	if n&1 == 1 { // the tail starts mid-byte
		enc[b] = enc[b]&0xF0 | e.emptyTail[b]&0x0F
		b++
	}
	copy(enc[b:], e.emptyTail[b:e.size])
	if !allLC {
		return
	}
	k := loadKey(enc)
	if rep, _, ok := e.memoGet(k, 0); ok {
		rep.store(enc)
		return
	}
	e.fastForward(k).store(enc)
}

// setInitRecord overwrites node i's 20-bit record with a fresh init
// record: phase init, every other field zero.
func setInitRecord(enc []byte, i int) {
	bit := bitsPerNode * i
	b := bit >> 3
	if bit&7 == 0 {
		enc[b], enc[b+1], enc[b+2] = byte(PhaseInit)<<4, 0, enc[b+2]&0x0F
	} else {
		enc[b], enc[b+1], enc[b+2] = enc[b]&0xF0|byte(PhaseInit), 0, 0
	}
}

// memoGet looks k up, taking a hit only when the memoized exit lies
// within the cap for a walk that reached k after steps steps.
func (e *Expander) memoGet(k ffKey, steps int) (ffKey, int, bool) {
	if e.memo == nil {
		return ffKey{}, 0, false
	}
	ent := &e.memo[k.hash()&(ffMemoSize-1)]
	if ent.key != k || steps+int(ent.dist) > ffCap {
		return ffKey{}, 0, false
	}
	return ent.rep, int(ent.dist), true
}

// memoize records every state of the walked path (e.ffPath) as exiting
// at rep, the path's last state being dist steps short of it; a no-op
// for a memo-less expander.
func (e *Expander) memoize(rep ffKey, dist int) {
	if e.memo == nil {
		return
	}
	last := len(e.ffPath) - 1
	for j, k := range e.ffPath {
		e.memo[k.hash()&(ffMemoSize-1)] = ffEntry{key: k, rep: rep, dist: uint32(last - j + dist)}
	}
}

// record reads node i's 20-bit record word out of the key.
func (k *ffKey) record(i int) uint32 { return k.field(bitsPerNode*i, bitsPerNode) }

// field reads the width-bit field (width <= 32) that starts pos bits
// into the key.
func (k *ffKey) field(pos, width int) uint32 {
	sh := 64 - pos&63 - width
	var w uint64
	if sh >= 0 {
		w = k[pos>>6] >> sh
	} else { // the field straddles two words
		w = k[pos>>6]<<-sh | k[pos>>6+1]>>(64+sh)
	}
	return uint32(w) & (1<<width - 1)
}

// orRecord ors w into node i's record, which must be zero.
func (k *ffKey) orRecord(i int, w uint32) { k.orField(bitsPerNode*i, bitsPerNode, w) }

// orField ors w into the width-bit field (width <= 32) that starts pos
// bits into the key, which must be zero.
func (k *ffKey) orField(pos, width int, w uint32) {
	sh := 64 - pos&63 - width
	if sh >= 0 {
		k[pos>>6] |= uint64(w) << sh
	} else { // the field straddles two words
		k[pos>>6] |= uint64(w) >> -sh
		k[pos>>6+1] |= uint64(w) << (64 + sh)
	}
}

// fastForward chases the deterministic masked chain from the
// all-{listen, cold_start} state k (tail already empty) until it exits
// the region — returning the last in-region state, whose exit
// transition the checker then explores normally — or, when the chain
// settles into an in-region cycle, returns the cycle's minimal-encoding
// state. Cycles are found with Brent's algorithm over the keys. Both
// outcomes are fixed points of the procedure, which makes Canonicalize
// idempotent. Exiting walks, and walks that reach a memoized state, are
// memoized along their whole path; cycles and truncated walks are not.
func (e *Expander) fastForward(k ffKey) ffKey {
	e.ffPath = append(e.ffPath[:0], k)

	// Brent's cycle detection over f = silentStep: the tortoise holds a
	// checkpoint at the last power of two, the chain itself is the hare.
	// An exit or a memo hit at any point wins immediately.
	tort := k
	lam, power := 0, 1
	for steps := 0; ; steps++ {
		if steps >= ffCap {
			return k
		}
		next, ok := e.silentStep(k)
		if !ok {
			e.memoize(k, 0) // chain exits the region: keep the last state inside
			return k
		}
		k = next
		lam++
		e.ffPath = append(e.ffPath, k)
		if rep, d, ok := e.memoGet(k, steps+1); ok {
			e.memoize(rep, d)
			return rep
		}
		if k == tort {
			break // in a cycle of length lam
		}
		if lam == power {
			tort = k
			power *= 2
			lam = 0
		}
	}

	// Walk the cycle once and keep its minimal encoding — the one
	// representative every chain feeding this cycle agrees on.
	min := k
	for i := 1; i < lam; i++ {
		next, ok := e.silentStep(k)
		if !ok {
			return k // unreachable: a detected cycle stays in-region
		}
		k = next
		if k.less(min) {
			min = k
		}
	}
	return min
}

// silentStep advances the all-{listen, cold_start} state k by one slot
// under the fault-free assignment, straight on the key's node records,
// and reports whether the successor is still inside the region; when it
// is not, the returned key is meaningless. By the fault-invisibility
// lemma (see the package comment above and
// TestSilentRegionFaultInvisibility) this is the unique masked
// successor of the whole fault menu. It is stepListen and
// stepOperational specialised to the region: every channel carries the
// nominal content, which is none, one node's cold-start frame, or the
// bad frame of a collision — never a frame with explicit C-state, so no
// agreed counter moves, and only a listener integrating on a cold-start
// frame (passive) or a cold starter passing its round (active) leaves.
// TestSilentRegionPackedStep pins it to the State stepper.
func (e *Expander) silentStep(k ffKey) (ffKey, bool) {
	n := e.m.cfg.Nodes
	nodes := uint32(n)
	var rec [1<<bitsSlot - 1]uint32 // Nodes <= 7: slots are 3 bits
	senders := 0
	for i := 0; i < n; i++ {
		w := k.record(i)
		rec[i] = w
		if w>>shPhase == uint32(PhaseColdStart) && w&recSlot>>shSlot == uint32(i+1) {
			senders++ // a cold starter on its own slot sends
		}
	}
	coldStart := senders == 1 // one cold-start frame on the channels
	frame := senders > 0      // a cold-start frame or a collision's bad frame

	next := e.tailKey
	for i := 0; i < n; i++ {
		w, own := rec[i], uint32(i+1)
		if w>>shPhase == uint32(PhaseListen) {
			switch {
			case coldStart && (w&recBigBang != 0 || e.m.cfg.DisableBigBang):
				return next, false // integrates: passive
			case coldStart:
				w = w&^recTimeout | recBigBang | (own + nodes)
			case w&recTimeout == 0:
				w = uint32(PhaseColdStart)<<shPhase | own<<shSlot | 1<<shAgreed
			default:
				w-- // the listen timeout counts down
			}
		} else {
			slot := w & recSlot >> shSlot
			agreed, failed := w&recAgreed>>shAgreed, w&recFailed>>shFailed
			if slot != own && frame && failed < 15 {
				failed++ // any frame in another node's slot fails
			}
			slot++
			if slot > nodes {
				slot = 1
			}
			switch {
			case slot != own:
				w = w&^(recSlot|recFailed) | slot<<shSlot | failed<<shFailed
			case agreed <= 1 && failed == 0: // nobody answered: send again
				w = w&^(recSlot|recAgreed|recFailed) | slot<<shSlot | 1<<shAgreed
			case agreed > failed:
				return next, false // passes its round: active
			default: // fails its round: back to listen
				w = uint32(PhaseListen)<<shPhase | (own + nodes)
			}
		}
		next.orRecord(i, w)
	}
	return next, true
}

// reducedFaSignature is faSignature under the reduction's observable
// projection, turning the repeat-skip into a partial-order filter over
// fault assignments: two assignments are equivalent when every consumer
// of their channel outcomes behaves identically modulo the dead tail.
//
//   - A bad frame on a bus with no real activity is judged null by
//     operational nodes and ignored by listeners — observationally the
//     empty channel — so it normalizes to none.
//   - With the buffers dead, the couplers are interchangeable: at most
//     one channel differs from the nominal content (single-fault
//     hypothesis), so every channel of a given real kind carries the
//     identical nominal content, listeners select frames by kind, and
//     judges take the max over channels — the channel tuple sorts.
//     Per-coupler fault masks restrict which assignments are enumerated
//     but not how their outcomes are consumed, so asymmetric channels
//     still sort soundly.
//
// The out-of-slot counter is dropped: it never moves without replay.
// Only reduced-mode expanders use this signature; the oracle mode keeps
// faSignature byte for byte, so published enumeration counts are
// untouched.
func reducedFaSignature(ch [MaxCouplers]Content, nc int, activity bool) uint32 {
	var w [MaxCouplers]uint32
	for c := 0; c < nc; c++ {
		k, id := ch[c].Kind, ch[c].ID
		if !activity && k == FrameBad {
			k, id = FrameNone, 0
		}
		w[c] = uint32(k)<<bitsBufID | uint32(id)
	}
	// Insertion-sort the nc-entry prefix (nc <= 3).
	for i := 1; i < nc; i++ {
		for j := i; j > 0 && w[j-1] > w[j]; j-- {
			w[j-1], w[j] = w[j], w[j-1]
		}
	}
	sig := uint32(0)
	for c := 0; c < nc; c++ {
		sig = sig<<(bitsKind+bitsBufID) | w[c]
	}
	sig <<= 1
	if activity {
		sig |= 1
	}
	return sig
}
