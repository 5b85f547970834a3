package mc

// The exploration engine: a level-synchronous parallel BFS.
//
// Each BFS generation (all states at one depth) is expanded by a bounded
// worker pool. Workers claim successors through the flat sharded visited
// set (flatset.go) — open-addressing probe tables over append-only entry
// logs, with a lock-free duplicate fast path — so there is no global
// lock on the hot path. Determinism for any worker count comes from two
// reductions:
//
//   - Claim keys. Every generated successor carries the key
//     levelBase + (frontier slot << 24 | successor index) — the order
//     the serial loop would examine it in. When two frontier slots
//     generate the same new state concurrently, the lower key wins the
//     parent pointer (re-keying), so BFS parents — and therefore
//     counterexample paths — are exactly the ones a serial
//     left-to-right sweep would record.
//   - Violation reduction. Invariant violations found within a level are
//     collected and the lowest-keyed one wins; states and transitions
//     are then counted up to that key only. The reported Result is
//     therefore byte-identical to the serial sweep's, which stops at the
//     first violation it meets.
//
// Claim keys are globally monotone: each level's keys start at a
// levelBase past every key minted before it (the base advances by
// len(frontier) << 24 per level). That single ordering both replaces the
// per-state depth field the visited set used to store — "claimed in the
// current level" is simply key >= levelBase — and lets the claim fast
// path resolve earlier-level duplicates without locking, because an
// entry with key < levelBase can never be re-keyed again.
//
// Work distribution within a level is chunked work-stealing: workers
// repeatedly grab the next fixed-size chunk of frontier slots from an
// atomic cursor, so a skewed level (one slot fanning out 10× the
// others') keeps every worker busy instead of serializing on a static
// partition. Stealing order is irrelevant to the result: claims reduce
// by min key and the level barrier is unchanged.
//
// Because every level is fully expanded before the next begins, a
// counterexample ends at the first level containing any violation: the
// trace is of minimal length, preserving the shortest-trace guarantee
// that substitutes for SMV's counterexamples (DESIGN.md).
//
// The loop itself (checkSearch) is the only BFS loop in the repo. It
// runs on a LevelBackend: localBackend below for the in-process search,
// or the distributed coordinator Options.Dist supplies. Admission,
// budgets, interrupts, violation counting, Progress and Stats are
// decided in the loop, never in a backend.
//
// The hot path is engineered to be allocation-free at steady state (see
// DESIGN.md "hot path & memory layout"): states move as 32-bit refs into
// the visited set's stable slots, every worker owns an Expander plus
// private accumulators that are reused level over level, the two
// frontier buffers double-buffer across generations, and the state hash
// is computed once per successor and passed through claim. Allocation
// remains only where structures genuinely grow — slab and probe-index
// growth — and on cold paths (violations, checkpoints, traces).

import (
	"cmp"
	"context"
	"errors"
	"fmt"
	"runtime"
	"slices"
	"sync"
	"sync/atomic"
	"time"

	"ttastar/internal/sim"
)

// Claim keys pack (frontier slot, successor index) into one comparable
// word on top of the level's base: lower key == earlier in serial
// examination order.
const (
	keySuccBits = 24 // successor index: up to ~16.7M successors per state
	keySuccMask = 1<<keySuccBits - 1
)

func claimKey(base uint64, slot, succ int) uint64 {
	if succ > keySuccMask {
		panic(fmt.Sprintf("mc: state with more than %d successors", keySuccMask))
	}
	return base + uint64(slot)<<keySuccBits + uint64(succ)
}

// stealChunk is the number of frontier slots a worker takes per grab of
// the level cursor — large enough to amortize the atomic add, small
// enough that a skewed tail redistributes.
const stealChunk = 32

// violation is a candidate invariant failure found within a level.
type violation struct {
	key     uint64
	fromRef uint32 // frontier state (transition violations only)
	to      State  // violating successor (transition violations only)
	toRef   uint32 // violating admitted state (state violations only)
	isState bool   // state-invariant (vs transition-invariant) violation
}

// levelAcc is one worker's private accumulator for a level, reused across
// levels: the slices are truncated, never reallocated, once they reach
// their high-water capacity.
type levelAcc struct {
	claimed []uint32   // states this worker admitted first
	trBest  *violation // lowest-keyed transition violation seen
	stViol  []uint32   // newly admitted states that fail the state invariant
	full    bool       // the worker hit the state budget
}

// book records a claim of enc: a new state (checked by stInv) or a spent budget.
func (acc *levelAcc) book(st ClaimStatus, ref uint32, enc []byte, stInv StateInvariantBytes) {
	switch st {
	case ClaimNew:
		acc.claimed = append(acc.claimed, ref)
		if stInv != nil && !stInv(enc) {
			acc.stViol = append(acc.stViol, ref)
		}
	case ClaimFull:
		acc.full = true
	}
}

// Emitter takes the successors a ShardStore's kernel goroutine does not
// claim, those of shards the store does not own; each goroutine has its
// own. Emit takes successor j (canonical when the search is reduced,
// valid only during the call) of the slot being expanded, bound for
// shard; EndSlot closes the slot, naming its global slot and ref.
type Emitter interface {
	Emit(shard uint32, j int, succ []byte)
	EndSlot(slot, parent uint32)
}

// levelRoute is a ShardStore's level (RunLevel): frontier state i has
// global slot slots[i] and global ref parents[i], and a successor of a
// shard not in owned goes to the goroutine's emitter. The engine, which
// owns every shard, passes none: slot i is index i and a parent its
// frontier ref.
type levelRoute struct {
	slots, parents []uint32
	owned          uint64
}

// levelScratch is the per-search reusable exploration state: worker
// accumulators, per-worker expanders and probe counters, the
// double-buffered frontier and the sort scratch. It is what makes the
// steady-state loop allocation-free — every level borrows these buffers
// instead of allocating its own.
type levelScratch struct {
	accs   []levelAcc
	counts []int
	exps   []Expander
	canons []CanonicalExpander // paired with exps; non-nil only in reduced searches
	emits  []Emitter           // paired with exps; nil except in a ShardStore's kernel
	probes []probeCounter
	spare  []uint32     // the frontier buffer not currently being expanded
	keyed  []keyedRef   // nextFrontier's per-worker sort segments, back to back
	segs   [][]keyedRef // nextFrontier's segment headers, then its merge heap
}

type keyedRef struct {
	key uint64
	ref uint32
}

// expanderFor returns the model's allocation-free expander when it offers
// one, else an adapter over Model.Successors.
func expanderFor(m Model) Expander {
	if em, ok := m.(ExpanderModel); ok {
		return em.NewExpander()
	}
	return &sliceExpander{m: m}
}

// sliceExpander adapts a plain Model to the Expander interface. The
// returned slices reuse a flat buffer, so the adapter itself adds no
// per-successor allocation beyond what Model.Successors already does.
type sliceExpander struct {
	m    Model
	buf  []byte
	offs []int
	out  [][]byte
}

func (e *sliceExpander) Successors(enc []byte) [][]byte {
	succs := e.m.Successors(State(enc))
	e.buf = e.buf[:0]
	e.offs = e.offs[:0]
	e.out = e.out[:0]
	for _, s := range succs {
		e.buf = append(e.buf, s...)
		e.offs = append(e.offs, len(e.buf))
	}
	start := 0
	for _, end := range e.offs {
		e.out = append(e.out, e.buf[start:end:end])
		start = end
	}
	return e.out
}

// newLevelScratch builds the per-search worker state. rm is non-nil only
// when the search runs reduced: each worker then gets a reduced expander
// whose canonicalizer the claim path applies to every admitted successor.
func newLevelScratch(m Model, workers int, rm ReducibleModel) *levelScratch {
	sc := &levelScratch{
		accs:   make([]levelAcc, workers),
		exps:   make([]Expander, workers),
		canons: make([]CanonicalExpander, workers),
		emits:  make([]Emitter, workers),
		probes: make([]probeCounter, workers),
	}
	for i := range sc.exps {
		if rm != nil {
			ce := rm.NewReducedExpander()
			sc.exps[i] = ce
			sc.canons[i] = ce
		} else {
			sc.exps[i] = expanderFor(m)
		}
	}
	return sc
}

// levelOut is a fully expanded level, before reduction. Its slices alias
// the search's levelScratch and are valid until the next runLevel call.
type levelOut struct {
	counts  []int // successor count per frontier slot
	accs    []levelAcc
	claimed int // total states admitted this level
}

// runLevel expands every frontier slot across the worker pool; base is
// the levelBase the minted claim keys start at, and rt routes a
// distributed worker's level (nil in the engine). The whole level is
// always completed — even after a violation or budget hit — because
// deterministic reduction needs every claim key of the level.
func runLevel(sc *levelScratch, v *visitedSet, frontier []uint32, base uint64,
	stInv StateInvariantBytes, trInv TransitionInvariantBytes, workers int, rt *levelRoute) levelOut {
	n := len(frontier)
	if workers > n {
		workers = n
	}
	if cap(sc.counts) < n {
		sc.counts = make([]int, n)
	}
	out := levelOut{counts: sc.counts[:n], accs: sc.accs[:workers]}
	for i := range out.accs {
		acc := &out.accs[i]
		acc.claimed = acc.claimed[:0]
		acc.stViol = acc.stViol[:0]
		acc.trBest = nil
		acc.full = false
	}
	expand := func(acc *levelAcc, exp Expander, can CanonicalExpander, pc *probeCounter, em Emitter, i int) {
		ref := frontier[i]
		slot, parent := i, ref
		if rt != nil {
			slot, parent = int(rt.slots[i]), rt.parents[i]
		}
		sb := v.bytesOf(ref)
		succs := exp.Successors(sb)
		out.counts[i] = len(succs)
		for j, succ := range succs {
			key := claimKey(base, slot, j)
			// The invariant sees the raw successor — canonicalization may
			// rewrite exactly the components a violation lives in (e.g. a
			// freeze phase) — and only then is the survivor folded onto its
			// class representative for claiming. Each succ is a disjoint
			// window of the worker-owned output buffer, so the in-place
			// rewrite cannot disturb the successors still to be examined.
			if trInv != nil && !trInv(sb, succ) {
				if acc.trBest == nil || key < acc.trBest.key {
					acc.trBest = &violation{key: key, fromRef: ref, to: State(succ)}
				}
				continue
			}
			if can != nil {
				can.Canonicalize(succ)
			}
			h := hashBytes(succ)
			if em != nil {
				if sh := uint32(h) & (numShards - 1); rt.owned&(1<<sh) == 0 {
					em.Emit(sh, j, succ)
					continue
				}
			}
			st, sref := v.claim(succ, h, parent, key, true, base, pc)
			acc.book(st, sref, succ, stInv)
		}
		if em != nil {
			em.EndSlot(uint32(slot), parent)
		}
	}
	if workers <= 1 {
		for i := 0; i < n; i++ {
			expand(&out.accs[0], sc.exps[0], sc.canons[0], &sc.probes[0], sc.emits[0], i)
		}
	} else {
		// Chunked work-stealing: each worker repeatedly claims the next
		// stealChunk frontier slots from the shared cursor, so slow
		// chunks never pin the rest of the level to one worker.
		var cursor atomic.Int64
		var wg sync.WaitGroup
		for w := 0; w < workers; w++ {
			wg.Add(1)
			go func(w int) {
				defer wg.Done()
				acc, exp, can, pc, em := &out.accs[w], sc.exps[w], sc.canons[w], &sc.probes[w], sc.emits[w]
				for {
					start := int(cursor.Add(stealChunk)) - stealChunk
					if start >= n {
						return
					}
					end := start + stealChunk
					if end > n {
						end = n
					}
					for i := start; i < end; i++ {
						expand(acc, exp, can, pc, em, i)
					}
				}
			}(w)
		}
		wg.Wait()
	}
	for i := range out.accs {
		out.claimed += len(out.accs[i].claimed)
	}
	return out
}

// reduceViolation picks the level's winning violation: the lowest claim
// key, with transition violations beating state violations on the
// (unreachable) tie. State-violation keys are resolved through the
// visited set so re-keyed claims use their final, lowest key.
func reduceViolation(v *visitedSet, out levelOut) *violation {
	var best *violation
	better := func(c *violation) bool {
		return best == nil || c.key < best.key || (c.key == best.key && !c.isState)
	}
	for i := range out.accs {
		if tr := out.accs[i].trBest; tr != nil && better(tr) {
			best = tr
		}
		for _, ref := range out.accs[i].stViol {
			c := &violation{key: v.keyOf(ref), toRef: ref, isState: true}
			if better(c) {
				best = c
			}
		}
	}
	return best
}

// transitionsThrough counts the transitions a serial sweep would have
// examined up to and including the winning key, given the key relative
// to the level's base.
func transitionsThrough(counts []int, relKey uint64) int {
	slot := int(relKey >> keySuccBits)
	total := int(relKey&keySuccMask) + 1
	for i := 0; i < slot; i++ {
		total += counts[i]
	}
	return total
}

// statesThrough counts the states of this level a serial sweep would have
// admitted before stopping at limit (exclusive).
func statesThrough(v *visitedSet, out levelOut, limit uint64) int {
	n := 0
	for i := range out.accs {
		for _, ref := range out.accs[i].claimed {
			if v.keyOf(ref) < limit {
				n++
			}
		}
	}
	return n
}

// nextFrontier orders the level's admitted states by their final claim
// keys — exactly the order a serial sweep would have appended them in —
// into dst, which is reused level over level.
//
// Each worker keys and sorts its own claims in its own segment of
// sc.keyed, all workers at once; one goroutine then merges the sorted
// segments into dst through a min-heap on their head keys. Keys are
// distinct, so the merged order does not depend on which worker claimed
// what. Both buffers only grow, so a steady-state level allocates
// nothing here but the goroutines.
func nextFrontier(v *visitedSet, sc *levelScratch, out levelOut, dst []uint32) []uint32 {
	dst = dst[:0]
	keyed := slices.Grow(sc.keyed[:0], out.claimed)[:out.claimed]
	segs := sc.segs[:0]
	off := 0
	for i := range out.accs {
		n := len(out.accs[i].claimed)
		segs = append(segs, keyed[off:off+n:off+n])
		off += n
	}
	sortSeg := func(w int) {
		seg := segs[w]
		for j, ref := range out.accs[w].claimed {
			seg[j] = keyedRef{key: v.keyOf(ref), ref: ref}
		}
		slices.SortFunc(seg, func(a, b keyedRef) int { return cmp.Compare(a.key, b.key) })
	}
	var wg sync.WaitGroup
	for w := 1; w < len(segs); w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			sortSeg(w)
		}(w)
	}
	sortSeg(0)
	wg.Wait()

	// k-way merge: h is a binary min-heap of the non-empty segments by
	// head key; each step emits the smallest head and sifts its segment
	// back down.
	h := segs[:0]
	for _, seg := range segs {
		if len(seg) > 0 {
			h = append(h, seg)
		}
	}
	for i := len(h)/2 - 1; i >= 0; i-- {
		siftDown(h, i)
	}
	for len(h) > 0 {
		dst = append(dst, h[0][0].ref)
		if h[0] = h[0][1:]; len(h[0]) == 0 {
			h[0] = h[len(h)-1]
			h = h[:len(h)-1]
		}
		siftDown(h, 0)
	}
	sc.keyed, sc.segs = keyed, segs
	return dst
}

// siftDown restores the min-heap order of h (segments by head key)
// below position i.
func siftDown(h [][]keyedRef, i int) {
	for {
		c := 2*i + 1
		if c >= len(h) {
			return
		}
		if c+1 < len(h) && h[c+1][0].key < h[c][0].key {
			c++
		}
		if h[i][0].key < h[c][0].key {
			return
		}
		h[i], h[c] = h[c], h[i]
		i = c
	}
}

// localBackend is the in-process LevelBackend: the sharded visited set,
// expanded level by level across the search's worker pool.
type localBackend struct {
	v        *visitedSet
	sc       *levelScratch
	stInv    StateInvariantBytes
	trInv    TransitionInvariantBytes
	workers  int
	noSeal   bool
	frontier []uint32
	lvl      levelOut   // the last expanded level
	pending  bool       // lvl's claims are not yet the frontier
	viol     *violation // lvl's winning violation
	chain    *Chain     // the chain the search writes; nil without a CheckpointPath
}

func newLocalBackend(m Model, rm ReducibleModel, stInv StateInvariantBytes,
	trInv TransitionInvariantBytes, opts Options) *localBackend {
	return &localBackend{
		v:       newVisitedSet(opts.MaxStates, allShards),
		sc:      newLevelScratch(m, opts.Workers, rm),
		stInv:   stInv,
		trInv:   trInv,
		workers: opts.Workers,
		noSeal:  opts.noSeal,
	}
}

func (b *localBackend) AdmitInitial(enc []byte, i int) ClaimStatus {
	st, ref := b.v.claim(enc, hashBytes(enc), 0, uint64(i), false, 0, &b.sc.probes[0])
	if st == ClaimNew {
		b.frontier = append(b.frontier, ref)
	}
	return st
}

func (b *localBackend) Expand(base uint64) (Level, error) {
	b.lvl = runLevel(b.sc, b.v, b.frontier, base, b.stInv, b.trInv, b.workers, nil)
	b.pending = true
	lvl := Level{Counts: b.lvl.counts}
	for i := range b.lvl.accs {
		lvl.Full = lvl.Full || b.lvl.accs[i].full
	}
	if b.viol = reduceViolation(b.v, b.lvl); b.viol != nil {
		lvl.Viol = &Violation{Key: b.viol.key, IsState: b.viol.isState}
	}
	return lvl, nil
}

func (b *localBackend) StatesBefore(limit uint64) int {
	return b.States() - b.lvl.claimed + statesThrough(b.v, b.lvl, limit)
}

func (b *localBackend) Trace() ([]State, error) {
	if b.viol.isState {
		return tracePath(b.v, b.viol.toRef), nil
	}
	return append(tracePath(b.v, b.viol.fromRef), b.viol.to), nil
}

// NextLevel orders the level's claims into the next frontier and seals
// the frontier just expanded. After admission or a restore the frontier
// is already built.
func (b *localBackend) NextLevel() (int, error) {
	if !b.pending {
		return len(b.frontier), nil
	}
	b.pending = false
	// Double-buffer the frontier: build the next generation into the
	// spare buffer, then recycle the one just expanded. A lone worker's
	// claims are ascending and never re-keyed: already the frontier.
	var next []uint32
	if len(b.lvl.accs) == 1 {
		next = append(b.sc.spare[:0], b.lvl.accs[0].claimed...)
	} else {
		next = nextFrontier(b.v, b.sc, b.lvl, b.sc.spare)
	}
	if !b.noSeal {
		// The frontier just expanded is immutable now — takeovers only
		// ever touch current-level claims — so migrate it into the
		// sealed tier and rewrite next's refs to the compacted live
		// positions.
		b.v.seal(b.workers, b.frontier, next)
	}
	b.sc.spare = b.frontier[:0]
	b.frontier = next
	return len(next), nil
}

func (b *localBackend) States() int     { return int(b.v.count.Load()) }
func (b *localBackend) Resident() int64 { return b.v.resident.Load() }

// Close folds the visited set's table statistics and the per-worker
// probe histograms into st.
func (b *localBackend) Close(st *Stats) {
	if st == nil {
		return
	}
	for i := range b.sc.probes {
		for k, c := range b.sc.probes[i].hist {
			st.ProbeHist[k] += c
		}
	}
	st.LoadFactor = b.v.loadFactor()
	st.ResidentBytes = b.v.resident.Load()
	st.PeakResidentBytes = b.v.peak.Load()
	st.SealedStates, st.SealedArenaBytes, st.SealedIndexBytes = b.v.sealedStats()
}

// resume restores chain c, when the search resumes from it, as the
// frontier to continue from, and opens the chain the search writes at
// path (none when path is empty): c continued, or an empty one.
func (b *localBackend) resume(c *Chain, path string) error {
	if c != nil {
		var err error
		if b.frontier, err = b.v.resume(c, allShards); err != nil {
			return err
		}
	}
	if path == "" {
		return nil
	}
	var err error
	b.chain, err = ContinueChain(path, c)
	return err
}

// snapshot closes the barrier h describes on the search's chain: one
// all-shard segment of the arena bytes sealed since the last write, the
// frontier and the manifest. A failed write leaves the marks, so the
// next one reaches back over it.
func (b *localBackend) snapshot(h ChainHeader) (int, error) {
	if b.chain == nil || b.chain.closed(h.Depth) {
		return 0, nil
	}
	s5 := b.v.capture(allShards, b.frontier)
	s5.ChainHeader = h
	retries, err := b.chain.writeBarrierRetry(s5)
	if err == nil {
		b.v.markWritten()
	}
	return retries, err
}

// check is the engine entry point shared by the four Check* functions.
// It wraps the search with the Options.Stats bookkeeping so the inner
// loop pays nothing when stats are off.
func check(m Model, stInv StateInvariantBytes, trInv TransitionInvariantBytes, opts Options) (Result, error) {
	opts = opts.withDefaults()
	if opts.Stats == nil {
		return checkSearch(m, stInv, trInv, opts, nil)
	}
	var ms0 runtime.MemStats
	runtime.ReadMemStats(&ms0)
	start := time.Now()
	st := &Stats{}
	res, err := checkSearch(m, stInv, trInv, opts, st)
	st.Duration = time.Since(start)
	var ms1 runtime.MemStats
	runtime.ReadMemStats(&ms1)
	st.States = res.StatesExplored
	st.Transitions = res.TransitionsExplored
	st.Allocs = ms1.Mallocs - ms0.Mallocs
	st.AllocBytes = ms1.TotalAlloc - ms0.TotalAlloc
	if s := st.Duration.Seconds(); s > 0 {
		st.StatesPerSec = float64(res.StatesExplored) / s
	}
	opts.Stats(*st)
	return res, err
}

// checkSearch is the search loop — the only one, whichever backend
// stores the states. st is nil when stats are off.
func checkSearch(m Model, stInv StateInvariantBytes, trInv TransitionInvariantBytes,
	opts Options, st *Stats) (Result, error) {
	ctx := opts.Context
	if ctx == nil {
		ctx = context.Background()
	}
	res := Result{Holds: true}

	// Reduction gate: the quotient is explored only when the model offers
	// one, the configuration admits it, the caller did not ask for the
	// oracle, and the predicate is a transition invariant alone — a state
	// invariant is evaluated per concrete state, which a class
	// representative cannot answer for.
	rm, _ := m.(ReducibleModel)
	if rm != nil && (opts.NoReduce || stInv != nil || trInv == nil || !rm.Reducible()) {
		rm = nil
	}
	res.Reduced = rm != nil

	// The checkpoint identity: snapshots record the model's configuration
	// fingerprint so a resume against a differently-parameterized model
	// (other node/coupler count, authority, option bits — and therefore a
	// different packed encoding) fails loudly instead of decoding garbage.
	fingerprint := FingerprintOf(m)

	// Checkpoints and resume belong to the sealing backends; the unsealed
	// oracle refuses them.
	if opts.noSeal && (opts.CheckpointPath != "" || opts.ResumePath != "" || opts.Dist != nil) {
		return res, errors.New("mc: the unsealed oracle cannot checkpoint, resume or run distributed")
	}
	// The one resume point: a chain either backend restores, checked here
	// against this search's mode and model.
	resume, err := OpenChain(opts.ResumePath)
	if err == nil && resume != nil {
		err = resume.Check(res.Reduced, fingerprint)
	}
	if err != nil {
		return res, err
	}
	if opts.Dist != nil && opts.CheckpointPath == "" {
		// A fleet closes a barrier at every level: resumed, it continues
		// its chain in place.
		opts.CheckpointPath = opts.ResumePath
	}
	var b LevelBackend
	var local *localBackend
	if opts.Dist != nil {
		db, err := opts.Dist.NewBackend(m, stInv, trInv, res.Reduced, resume, opts)
		if err != nil {
			return res, err
		}
		b = db
	} else {
		local = newLocalBackend(m, rm, stInv, trInv, opts)
		b = local
	}
	defer b.Close(st)
	if local != nil {
		if err := local.resume(resume, opts.CheckpointPath); err != nil {
			return res, err
		}
	}
	// header is the barrier record of the frontier at depth.
	header := func(depth int32, nextBase uint64) ChainHeader {
		return ChainHeader{Depth: depth, ResultDepth: res.Depth, Transitions: res.TransitionsExplored,
			Reduced: res.Reduced, Fingerprint: fingerprint, NextBase: nextBase}
	}

	startDepth := int32(0)
	// nextBase is the levelBase the next level's claim keys start at; it
	// advances by len(frontier) << keySuccBits per level, keeping claim
	// keys globally monotone across the whole search.
	var nextBase uint64
	if resume != nil {
		startDepth, nextBase = resume.Depth, resume.NextBase
		res.Depth, res.TransitionsExplored = resume.ResultDepth, resume.Transitions
	} else {
		// Level 0: admit the initial states in index order (their claim
		// keys), canonical when reduced, counting them against the state
		// budget and checking the state invariant before any expansion.
		var can CanonicalExpander
		if rm != nil {
			can = rm.NewReducedExpander()
		}
		inits := m.Initial()
		admitted := 0
		for i, s := range inits {
			enc := []byte(s) // fresh copy, safe to canonicalize in place
			if can != nil {
				can.Canonicalize(enc)
			}
			switch b.AdmitInitial(enc, i) {
			case ClaimFull:
				return exhausted(m, admitted, res, stInv, trInv, opts)
			case ClaimDup:
				continue
			}
			admitted++
			if stInv != nil && !stInv(enc) {
				res.Holds = false
				res.Counterexample = []State{s}
				res.StatesExplored = admitted
				return conclusive(res, opts)
			}
		}
		nextBase = uint64(len(inits)) << keySuccBits
	}
	frontier, err := b.NextLevel()
	if err != nil {
		res.StatesExplored = b.States()
		return res, err
	}
	peakFrontier(st, frontier)

	levelsSinceCheckpoint := 0
	for depth := startDepth; frontier > 0; depth++ {
		if err := ctx.Err(); err != nil {
			return interrupted(local, res, b.States(), header(depth, nextBase), err)
		}
		if opts.MaxDepth > 0 && int(depth) >= opts.MaxDepth {
			res.DepthBounded = true
			break
		}
		// The memory budget is enforced at level boundaries, where the
		// resident footprint is a deterministic function of the admitted
		// state set — so a budget trip is identical for any worker count.
		if opts.MemBudget > 0 && b.Resident() > opts.MemBudget {
			return exhausted(m, b.States(), res, stInv, trInv, opts)
		}
		if nextBase+(uint64(frontier)+1)<<keySuccBits > keyMask {
			return res, fmt.Errorf("mc: claim-key space exhausted at depth %d (%d states): %w",
				depth, b.States(), ErrStateLimit)
		}
		lvl, err := b.Expand(nextBase)
		if err != nil {
			res.StatesExplored = b.States()
			return res, err
		}
		if st != nil {
			st.Levels++
		}

		if viol := lvl.Viol; viol != nil {
			res.Holds = false
			res.Depth = int(depth) + 1
			limit := viol.Key // transitions: count claims strictly before
			if viol.IsState {
				limit++ // the violating state itself was admitted first
			}
			res.StatesExplored = b.StatesBefore(limit)
			res.TransitionsExplored += transitionsThrough(lvl.Counts, viol.Key-nextBase)
			cex, err := b.Trace()
			if err != nil {
				return res, err
			}
			res.Counterexample = cex
			if rm != nil {
				// The quotient trace runs through canonical
				// representatives; decanonicalize it into a concrete
				// witness (and re-verify the violation against the oracle
				// semantics in the process).
				if cex, err = concretize(m, rm, trInv, cex); err != nil {
					return res, err
				}
				res.Counterexample = cex
				res.Depth = len(cex) - 1
			}
			return conclusive(res, opts)
		}

		for _, c := range lvl.Counts {
			res.TransitionsExplored += c
		}
		if lvl.Full {
			return exhausted(m, b.States(), res, stInv, trInv, opts)
		}

		nextBase += uint64(frontier) << keySuccBits
		if frontier, err = b.NextLevel(); err != nil {
			res.StatesExplored = b.States()
			return res, err
		}
		peakFrontier(st, frontier)
		if frontier > 0 {
			res.Depth = int(depth) + 1
		}
		if opts.Progress != nil {
			opts.Progress(Progress{
				Depth:       int(depth) + 1,
				States:      b.States(),
				Transitions: res.TransitionsExplored,
				Frontier:    frontier,
			})
		}
		levelsSinceCheckpoint++
		if local != nil && opts.CheckpointEvery > 0 &&
			levelsSinceCheckpoint >= opts.CheckpointEvery && frontier > 0 {
			// A periodic checkpoint is an optimization, not a correctness
			// requirement: transient write failures are retried with
			// bounded backoff, and a barrier that still cannot be written
			// is dropped — surfaced through Stats — rather than killing
			// the search. The last manifest stays valid, so a later resume
			// is merely older, never wrong, and the next segment reaches
			// back over the dropped one.
			retries, err := local.snapshot(header(depth+1, nextBase))
			if st != nil {
				st.CheckpointRetries += retries
				if err != nil {
					st.CheckpointWriteErr = err.Error()
				}
			}
			levelsSinceCheckpoint = 0
		}
	}
	res.StatesExplored = b.States()
	return conclusive(res, opts)
}

// peakFrontier records a produced frontier's length in st.PeakFrontier.
func peakFrontier(st *Stats, n int) {
	if st != nil && n > st.PeakFrontier {
		st.PeakFrontier = n
	}
}

// reductionMode names a search mode in user-facing errors.
func reductionMode(reduced bool) string {
	if reduced {
		return "reduced"
	}
	return "non-reduced"
}

// conclusive finalizes a search that reached a definite verdict: any
// checkpoint on disk — the manifest and every file it lists — is now
// stale and is removed so it can never shadow this result. An
// Inconclusive verdict is NOT definite — the budget ran out and the
// sampling pass proved nothing — so its checkpoint survives for a re-run
// with a larger budget. A failed removal is surfaced rather than
// swallowed: a stale checkpoint a later -resume run silently picks up
// would shadow the fresh search.
func conclusive(res Result, opts Options) (Result, error) {
	if opts.CheckpointPath == "" || res.Inconclusive {
		return res, nil
	}
	if err := removeChain(opts.CheckpointPath); err != nil {
		return res, fmt.Errorf("mc: removing stale checkpoint after conclusive verdict: %w", err)
	}
	return res, nil
}

// interrupted finalizes a cancelled search: the partial Result keeps
// everything explored so far, the in-process search closes the barrier
// h describes on its chain (a distributed one closed it already), and
// the context's cause is surfaced as ErrDeadline or ErrInterrupted.
func interrupted(local *localBackend, res Result, states int, h ChainHeader, cause error) (Result, error) {
	res.Interrupted = true
	res.StatesExplored = states
	if local != nil {
		// Unlike a periodic checkpoint, the interrupt checkpoint is the
		// run's only surviving artifact — a write failure here is fatal
		// after the transient-retry budget is spent.
		if _, err := local.snapshot(h); err != nil {
			return res, err
		}
	}
	reason := ErrInterrupted
	if errors.Is(cause, context.DeadlineExceeded) {
		reason = ErrDeadline
	}
	return res, fmt.Errorf("depth %d, %d states: %w", res.Depth, res.StatesExplored, reason)
}

// fallbackSeedDomain separates the fallback walker's RNG stream from every
// other seed derivation in the repo.
const fallbackSeedDomain = 0x5d

// exhausted handles a spent MaxStates or MemBudget budget. Without a
// fallback it is the historical hard failure; with FallbackWalks set it
// degrades into seeded random-walk sampling beyond the explored region,
// yielding either a genuine (non-minimal) counterexample or an explicit
// Inconclusive verdict with coverage stats.
func exhausted(m Model, states int, res Result, stInv StateInvariantBytes,
	trInv TransitionInvariantBytes, opts Options) (Result, error) {
	res.StatesExplored = states
	if opts.FallbackWalks <= 0 {
		return res, fmt.Errorf("%d states: %w", res.StatesExplored, ErrStateLimit)
	}
	rng := sim.NewRNG(sim.Mix(opts.FallbackSeed, fallbackSeedDomain))
	w := RandomWalker{NextChoice: rng.Intn}
	var trace []State
	if trInv != nil {
		trace = w.Walk(m, func(from, to State) bool { return trInv([]byte(from), []byte(to)) },
			opts.FallbackWalks, opts.FallbackDepth)
	} else {
		trace = w.WalkState(m, func(s State) bool { return stInv([]byte(s)) },
			opts.FallbackWalks, opts.FallbackDepth)
	}
	res.SampledWalks = opts.FallbackWalks
	res.SampledDepth = opts.FallbackDepth
	if trace != nil {
		res.Holds = false
		res.Counterexample = trace
		res.Depth = len(trace) - 1
	} else {
		res.Inconclusive = true
	}
	return conclusive(res, opts)
}

// tracePath reconstructs the BFS path from an initial state to ref
// inclusive by following parent refs until a root (hasParent == false) —
// never by inspecting the encoding, so models whose states encode to ""
// are reconstructed correctly.
func tracePath(v *visitedSet, ref uint32) []State {
	var rev []uint32
	for {
		rev = append(rev, ref)
		p, ok := v.parentOf(ref)
		if !ok {
			break
		}
		ref = p
	}
	out := make([]State, len(rev))
	for i := range rev {
		out[len(rev)-1-i] = v.stateOf(rev[i])
	}
	return out
}
