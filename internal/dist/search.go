package dist

// The coordinator as an mc.LevelBackend: mc's search loop decides, the
// coordinator runs each level's barrier across the fleet. Admission
// routes the initial states to their shard owners as init claims;
// Expand issues the level's Expands and collects its barrier; NextLevel
// closes the barrier into the next frontier.

import (
	"fmt"
	"sort"

	"ttastar/internal/mc"
)

// AdmitInitial dedups initial state i at the coordinator, charges it to
// the state budget and queues it for its shard owner as an init claim
// with key i.
func (c *coordinator) AdmitInitial(enc []byte, i int) mc.ClaimStatus {
	c.next = mc.ClaimKey(0, i+1, 0)
	if c.canon != nil {
		c.canon.Canonicalize(enc)
	}
	if _, dup := c.initSeen[string(enc)]; dup {
		return mc.ClaimDup
	}
	if len(c.initSeen) >= c.mopts.MaxStates {
		return mc.ClaimFull
	}
	c.initSeen[string(enc)] = struct{}{}
	shard := mc.ShardOf(mc.HashState(enc))
	g := c.inits[shard]
	if g == nil {
		g = &msgInit{}
		c.inits[shard] = g
	}
	g.Js = append(g.Js, uint32(i))
	g.Encs = append(g.Encs, enc)
	return mc.ClaimNew
}

// NextLevel closes the current level's barrier. At level 0 it first
// ships the admitted initial states and collects their barrier.
func (c *coordinator) NextLevel() (int, error) {
	if c.initSeen != nil {
		c.initSeen = nil
		c.issueLevel()
		if err := c.collectLevel(); err != nil {
			return 0, err
		}
	}
	c.frontierLen = c.closeBarrier()
	return c.frontierLen, nil
}

// Expand runs the next level across the fleet up to its barrier.
func (c *coordinator) Expand(base uint64) (mc.Level, error) {
	c.startLevel(c.level+1, base)
	if err := c.collectLevel(); err != nil {
		return mc.Level{}, err
	}
	for _, n := range c.counts {
		c.totalGen += uint64(n)
	}
	lvl := mc.Level{Counts: c.counts, Full: c.anyFull}
	if c.viol = c.reduceViolation(); c.viol != nil {
		lvl.Viol = &mc.Violation{Key: c.viol.key, IsState: c.viol.isState}
	}
	return lvl, nil
}

// StatesBefore is every admitted state less the current level's claims
// keyed at or past limit.
func (c *coordinator) StatesBefore(limit uint64) int {
	n := c.States()
	for _, w := range c.workers {
		for _, k := range w.seg.keys {
			if k >= limit {
				n--
			}
		}
	}
	return n
}

// Trace reconstructs the winning violation's path through per-owner
// parent queries.
func (c *coordinator) Trace() ([]mc.State, error) {
	if c.viol.isState {
		return c.tracePath(c.viol.enc)
	}
	cex, err := c.tracePath(c.viol.from)
	if err != nil {
		return nil, err
	}
	return append(cex, mc.State(c.viol.to)), nil
}

// States totals the workers' latest reported state counts.
func (c *coordinator) States() int {
	var total int64
	for _, w := range c.workers {
		total += w.states
	}
	return int(total)
}

// Resident totals the workers' latest reported resident bytes.
func (c *coordinator) Resident() int64 {
	var total int64
	for _, w := range c.workers {
		total += w.resident
	}
	return total
}

// startLevel rotates the level state and issues the level.
func (c *coordinator) startLevel(level int32, base uint64) {
	c.slots = c.lastSlots
	c.lastSlots = nil
	c.level = level
	c.base = base
	c.next = mc.ClaimKey(base, c.frontierLen, 0)
	c.issueLevel()
}

// issueLevel starts the current level's accounting afresh and issues
// the level to the fleet: its Expands — one per worker, empty slot
// lists included, so SWIFI level triggers fire on idle workers too —
// or, at level 0, each shard's admitted initial states to its owner
// (once admission is over). A recovery calls it again to redo the
// level on a new generation.
func (c *coordinator) issueLevel() {
	c.acc = make([][]uint64, c.o.Workers)
	for i := range c.acc {
		c.acc[i] = make([]uint64, c.o.Workers)
	}
	c.pending = map[uint32]pendingExpand{}
	c.counts = make([]int, c.frontierLen)
	c.sealed = false
	c.anyFull = false
	c.trBest = nil
	c.stViols = nil
	for _, w := range c.workers {
		w.seg = nil
		if c.level > 0 {
			c.issueExpand(w, c.slots[w.index])
		}
	}
	if c.level == 0 && c.initSeen == nil {
		for shard, g := range c.inits {
			if g != nil {
				c.sendTo(c.workers[c.assign[shard]], g)
			}
		}
	}
}

// issueExpand enqueues one msgExpand of the current level and registers
// it as pending.
func (c *coordinator) issueExpand(w *workerState, slots []uint32) {
	id := c.nextID
	c.nextID++
	c.pending[id] = pendingExpand{wi: w.index, slots: slots}
	c.sendTo(w, &msgExpand{Level: c.level, Base: c.base, ID: id, Slots: slots})
}

// collectLevel pumps events until the level's barrier is complete.
func (c *coordinator) collectLevel() error {
	for {
		c.trySeal()
		if c.barrierReady() {
			return nil
		}
		if err := c.step(); err != nil {
			return err
		}
	}
}

// trySeal broadcasts the level's Seals once no Expand is outstanding.
// A Seal follows its worker's Config, inits and Expand in the same FIFO
// outbox, so a restarted generation needs no further gating.
func (c *coordinator) trySeal() {
	if c.sealed || len(c.pending) != 0 {
		return
	}
	for _, w := range c.workers {
		c.sealTo(w)
	}
	c.sealed = true
}

// sealTo enqueues a Seal quoting exactly the mesh groups declared
// toward the worker this level, and registers the report it owes. The
// worker executes the seal only once its received counts match the
// Expects — the counting half of the level barrier.
func (c *coordinator) sealTo(w *workerState) {
	seq := c.sealSeq
	c.sealSeq++
	m := &msgSeal{Level: c.level, Seq: seq, Next: c.next}
	for sender, n := range c.acc[w.index] {
		if n > 0 {
			m.Expect = append(m.Expect, expectCount{Sender: sender, Groups: n})
		}
	}
	c.sendTo(w, m)
	w.seg = &keySegment{seq: seq}
}

func (c *coordinator) barrierReady() bool {
	if !c.sealed {
		return false
	}
	for _, w := range c.workers {
		if w.seg == nil || !w.seg.filled {
			return false
		}
	}
	return true
}

// closeBarrier merges the per-worker key sequences into the global
// frontier order, assigns next-level slots and prices open recoveries.
// It returns the global frontier's length.
func (c *coordinator) closeBarrier() int {
	var sorted []uint64
	for _, w := range c.workers {
		sorted = append(sorted, w.seg.keys...)
	}
	sort.Slice(sorted, func(i, j int) bool { return sorted[i] < sorted[j] })
	c.lastSlots = map[int][]uint32{}
	for _, w := range c.workers {
		slots := make([]uint32, 0, len(w.seg.keys))
		for _, k := range w.seg.keys {
			slots = append(slots, uint32(sort.Search(len(sorted), func(i int) bool { return sorted[i] >= k })))
		}
		c.lastSlots[w.index] = slots
	}
	var level uint64
	for _, n := range c.counts {
		level += uint64(n)
	}
	for _, rec := range c.openRecs {
		rec.SlotTransitions = level
		c.rep.Recoveries = append(c.rep.Recoveries, rec)
	}
	c.openRecs = nil
	return len(sorted)
}

// reduceViolation picks the level's winner: lowest claim key, transition
// beating state on a tie — engine semantics.
func (c *coordinator) reduceViolation() *distViol {
	best := c.trBest
	for i := range c.stViols {
		sv := &c.stViols[i]
		if best == nil || sv.key < best.key {
			best = sv
		}
	}
	return best
}

// tracePath reconstructs the path from a root to enc through the
// owning workers, mirroring the engine's tracePath over the store: the
// first hop finds enc by its encoding, every later one names the parent
// by its global ref at the owner of the ref's shard.
func (c *coordinator) tracePath(enc []byte) ([]mc.State, error) {
	rev := []mc.State{mc.State(enc)}
	reply, err := c.queryTrace(c.assign[mc.ShardOf(mc.HashState(enc))], &msgTraceQuery{Enc: enc})
	if err != nil {
		return nil, err
	}
	if !reply.Found {
		return nil, fmt.Errorf("dist: trace state missing from its owner's store")
	}
	for reply.HasParent {
		if len(rev) > int(c.level)+2 {
			return nil, fmt.Errorf("dist: trace longer than the search depth; parent chain corrupt")
		}
		ref := reply.Parent
		owner := c.assign[mc.RefShard(ref)]
		if reply, err = c.queryTrace(owner, &msgTraceQuery{ByRef: true, Ref: ref}); err != nil {
			return nil, err
		}
		if !reply.Found {
			return nil, fmt.Errorf("%w: worker %d holds no state for trace parent ref %#x",
				mc.ErrCheckpointCorrupt, owner, ref)
		}
		rev = append(rev, mc.State(reply.Enc))
	}
	out := make([]mc.State, len(rev))
	for i := range rev {
		out[len(rev)-1-i] = rev[i]
	}
	return out, nil
}

// queryTrace sends one trace query to worker index wi and waits for its
// reply, synchronously (the barrier is quiet when traces are
// reconstructed).
func (c *coordinator) queryTrace(wi uint8, q *msgTraceQuery) (*msgTraceReply, error) {
	w := c.workers[wi]
	if !w.alive {
		return nil, fmt.Errorf("dist: trace owner (worker %d) is not alive", w.index)
	}
	c.sendTo(w, q)
	ticks := 0
	for {
		ev := <-c.events
		switch ev.kind {
		case evMsg:
			if ev.typ == mtTraceReply && c.eventWorker(ev) == w {
				return decodeTraceReply(ev.payload)
			}
		case evDead:
			if c.eventWorker(ev) != nil {
				return nil, fmt.Errorf("dist: worker %d died during trace reconstruction: %v", ev.wi, ev.err)
			}
		case evTick:
			ticks++
			if ticks > 8 {
				return nil, fmt.Errorf("dist: trace query to worker %d timed out", w.index)
			}
		}
	}
}
