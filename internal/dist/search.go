package dist

// The coordinator as an mc.LevelBackend: mc's search loop decides, the
// coordinator runs each level's barrier across the fleet. Admission
// routes the initial states to their shard owners as batch claims;
// Expand issues the level's Expands and collects its barrier; NextLevel
// closes the barrier into the next frontier.

import (
	"fmt"
	"sort"

	"ttastar/internal/mc"
)

// AdmitInitial dedups initial state i at the coordinator, charges it to
// the state budget and queues it for its shard owner as a batch claim
// with key i.
func (c *coordinator) AdmitInitial(enc []byte, i int) mc.ClaimStatus {
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
	g := c.initGroups[shard]
	if g == nil {
		g = &batchGroup{Shard: uint8(shard), Slot: 0}
		c.initGroups[shard] = g
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
		for shard, g := range c.initGroups {
			if g != nil {
				c.sendTo(c.workers[c.assign[shard]], &msgBatch{Level: 0, Base: 0, Groups: []batchGroup{*g}})
			}
		}
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
		if !w.alive || w.retired {
			continue
		}
		for _, sg := range w.segs {
			for _, k := range sg.keys {
				if k >= limit {
					n--
				}
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

// States totals the active workers' latest reported state counts.
func (c *coordinator) States() int {
	var total int64
	for _, w := range c.workers {
		if w.alive && !w.retired {
			total += w.states + w.extraStates
		}
	}
	return int(total)
}

// Resident totals the active workers' latest reported resident bytes.
func (c *coordinator) Resident() int64 {
	var total int64
	for _, w := range c.workers {
		if w.alive && !w.retired {
			total += w.resident + w.extraResident
		}
	}
	return total
}

// startLevel rotates the level state and issues the level's Expands —
// one per active worker (empty slot lists included, so SWIFI level
// triggers fire on idle workers too).
func (c *coordinator) startLevel(level int32, base uint64) {
	c.prevSlots = c.slots
	c.slots = c.lastSlots
	c.lastSlots = nil
	c.prevBase = c.base
	c.level = level
	c.base = base
	c.accPrev = c.accCur
	c.accCur = freshAcc(c.o.Workers)
	c.prevCounts = c.counts
	c.counts = make([]int, c.frontierLen)
	c.sealed = false
	c.resealAll = false
	c.anyFull = false
	c.trBest = nil
	c.stViols = nil
	for _, w := range c.workers {
		w.segs = nil
		w.extraStates = 0
		w.extraResident = 0
	}
	for _, w := range c.workers {
		if !w.alive || w.retired {
			continue
		}
		c.issueExpand(w, level, c.base, c.slots[w.index], false, false, false)
	}
}

// issueExpand enqueues one msgExpand and registers it as pending.
func (c *coordinator) issueExpand(w *workerState, level int32, base uint64,
	slots []uint32, fromEnd, selfOnly, consume bool) {
	id := c.nextID
	c.nextID++
	c.pending[id] = pendingExpand{wi: w.index, level: level, slots: slots}
	c.sendTo(w, &msgExpand{Level: level, Base: base, ID: id,
		FromEnd: fromEnd, SelfOnly: selfOnly, Consume: consume, Slots: slots})
	if c.sealed && !selfOnly && level == c.level {
		// A post-seal re-expansion can forward foreign successors into
		// stores that already drained; everyone must re-seal so those
		// claims join the current frontier, not the next one.
		c.resealAll = true
	}
}

// collectLevel pumps events until the level's barrier is complete.
func (c *coordinator) collectLevel() error {
	for {
		c.trySeal()
		c.tryReseal()
		if c.barrierReady() {
			return nil
		}
		if err := c.step(); err != nil {
			return err
		}
	}
}

func (c *coordinator) anyRecovering() bool {
	for _, w := range c.workers {
		if w.alive && !w.helloed {
			return true
		}
	}
	return false
}

func (c *coordinator) trySeal() {
	if c.sealed || len(c.pending) != 0 || len(c.replayOps) != 0 || c.anyRecovering() {
		return
	}
	for _, w := range c.workers {
		if w.alive && !w.retired {
			c.sealTo(w, false)
		}
	}
	c.sealed = true
	for _, f := range c.afterSeal {
		f()
	}
	c.afterSeal = nil
}

func (c *coordinator) tryReseal() {
	if !c.sealed || !c.resealAll || len(c.pending) != 0 || len(c.replayOps) != 0 || c.anyRecovering() {
		return
	}
	for _, w := range c.workers {
		if w.alive && !w.retired {
			c.sealTo(w, true)
		}
	}
	c.resealAll = false
}

// sealTo enqueues a Seal quoting exactly the mesh groups declared
// toward the worker this level, and registers the report segment it
// owes. The worker executes the seal only once its received counts
// match the Expects — the counting half of the level barrier.
func (c *coordinator) sealTo(w *workerState, merge bool) {
	seq := c.sealSeq
	c.sealSeq++
	m := &msgSeal{Level: c.level, Seq: seq, Merge: merge}
	for sender, rec := range c.accCur[w.index] {
		if rec.declared > 0 {
			m.Expect = append(m.Expect, expectCount{Sender: sender, SenderInc: rec.inc, Groups: rec.declared})
		}
	}
	c.sendTo(w, m)
	sg := &keySegment{seq: seq}
	if merge {
		w.segs = append(w.segs, sg)
	} else {
		w.segs = []*keySegment{sg}
	}
}

func (c *coordinator) barrierReady() bool {
	if !c.sealed || c.resealAll || len(c.pending) != 0 || len(c.replayOps) != 0 || c.anyRecovering() {
		return false
	}
	for _, w := range c.workers {
		if !w.alive || w.retired {
			continue
		}
		if len(w.segs) == 0 {
			return false
		}
		for _, sg := range w.segs {
			if !sg.filled {
				return false
			}
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
		if !w.alive || w.retired {
			continue
		}
		for _, sg := range w.segs {
			sorted = append(sorted, sg.keys...)
		}
	}
	sort.Slice(sorted, func(i, j int) bool { return sorted[i] < sorted[j] })
	c.lastSlots = map[int][]uint32{}
	for _, w := range c.workers {
		if !w.alive || w.retired {
			continue
		}
		var slots []uint32
		for _, sg := range w.segs {
			for _, k := range sg.keys {
				slots = append(slots, uint32(sort.Search(len(sorted), func(i int) bool { return sorted[i] >= k })))
			}
		}
		c.lastSlots[w.index] = slots
	}
	for _, or := range c.openRecs {
		rec := or.rec
		for _, s := range or.slots {
			if int(s) < len(c.counts) {
				rec.SlotTransitions += uint64(c.counts[s])
			}
		}
		for _, s := range or.prevSlots {
			if int(s) < len(c.prevCounts) {
				rec.SlotTransitions += uint64(c.prevCounts[s])
			}
		}
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

// tracePath walks parent encodings from enc back to a root through the
// owning workers, mirroring the engine's tracePath over the store.
func (c *coordinator) tracePath(enc []byte) ([]mc.State, error) {
	var rev []mc.State
	cur := append([]byte(nil), enc...)
	for hops := 0; ; hops++ {
		if hops > int(c.level)+2 {
			return nil, fmt.Errorf("dist: trace longer than the search depth; parent chain corrupt")
		}
		rev = append(rev, mc.State(cur))
		reply, err := c.queryParent(cur)
		if err != nil {
			return nil, err
		}
		if !reply.Found {
			return nil, fmt.Errorf("dist: trace state missing from its owner's store")
		}
		if !reply.HasParent {
			break
		}
		cur = reply.Parent
	}
	out := make([]mc.State, len(rev))
	for i := range rev {
		out[len(rev)-1-i] = rev[i]
	}
	return out, nil
}

// queryParent asks the owner of enc's shard for its recorded parent,
// synchronously (the barrier is quiet when traces are reconstructed).
func (c *coordinator) queryParent(enc []byte) (*msgTraceReply, error) {
	w := c.workers[c.assign[mc.ShardOf(mc.HashState(enc))]]
	if !w.alive {
		return nil, fmt.Errorf("dist: trace owner (worker %d) is not alive", w.index)
	}
	c.sendTo(w, &msgTraceQuery{Enc: enc})
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
