package dist

// The coordinator as an mc.LevelBackend: mc's search loop decides, the
// coordinator runs each level across the fleet. Admission routes the
// initial states to their shard owners, whose level-0 Expands carry
// them; Expand issues the level's Expands and collects their reports;
// NextLevel closes the barrier into the next frontier.

import (
	"fmt"
	"os"

	"ttastar/internal/mc"
	"ttastar/internal/retry"
)

// AdmitInitial dedups initial state i at the coordinator, charges it to
// the state budget and queues it for its shard owner's level-0 Expand,
// to be claimed with key i.
func (c *coordinator) AdmitInitial(enc []byte, i int) mc.ClaimStatus {
	c.next = mc.ClaimKey(0, i+1, 0)
	if _, dup := c.initSeen[string(enc)]; dup {
		return mc.ClaimDup
	}
	if len(c.initSeen) >= c.mopts.MaxStates {
		return mc.ClaimFull
	}
	c.initSeen[string(enc)] = struct{}{}
	w := c.assign[mc.ShardOf(mc.HashState(enc))]
	c.roots[w] = append(c.roots[w], root{J: uint32(i), Enc: enc})
	return mc.ClaimNew
}

// NextLevel closes the current level's barrier. At level 0 it first
// issues the level, which claims the admitted initial states.
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
		for _, k := range w.keys {
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

// startLevel sets the level state and issues the level.
func (c *coordinator) startLevel(level int32, base uint64) {
	c.level = level
	c.base = base
	c.next = mc.ClaimKey(base, c.frontierLen, 0)
	c.issueLevel()
}

// issueLevel starts the current level's accounting afresh and sends
// every worker its Expand — empty slot lists included, so SWIFI level
// triggers fire on idle workers too; at level 0 each carries the
// worker's admitted initial states, once admission is over. A recovery
// calls it again to redo the level on a new generation.
func (c *coordinator) issueLevel() {
	c.counts = make([]int, c.frontierLen)
	c.anyFull = false
	c.trBest = nil
	c.stViols = nil
	if c.initSeen != nil {
		return
	}
	for _, w := range c.workers {
		w.reported = false
		m := &msgExpand{Level: c.level, Base: c.base, Slots: c.slots[w.index]}
		if c.level == 0 {
			m.Roots = c.roots[w.index]
		}
		c.sendTo(w, m)
	}
}

// collectLevel pumps events until the level's barrier is complete,
// then books the level's transitions, prices the recoveries that redid
// it and closes the barrier on disk. The counts are final once the
// Expands have all reported, so a recovery is priced even at the level
// whose violation ends the search.
func (c *coordinator) collectLevel() error {
	for !c.allReported() {
		if err := c.step(); err != nil {
			return err
		}
	}
	var level uint64
	for _, n := range c.counts {
		level += uint64(n)
	}
	c.totalGen += level
	for _, rec := range c.openRecs {
		rec.SlotTransitions = level
		c.rep.Recoveries = append(c.rep.Recoveries, rec)
	}
	c.openRecs = nil
	return c.commit()
}

// commit closes the level's barrier on disk before any Expand of the
// next level: one rename of the manifest, which appends every worker's
// segment of the level and names their frontier files. A level that ends
// the search (a violation, a spent budget, no frontier) is no restore
// point: its files are deleted instead.
func (c *coordinator) commit() error {
	var segs, fronts []string
	frontier := 0
	for i, w := range c.workers {
		seg, front := mc.BarrierFiles(c.chain.Path(), i, c.level)
		segs, fronts = append(segs, seg), append(fronts, front)
		frontier += len(w.keys)
	}
	if c.anyFull || c.trBest != nil || len(c.stViols) > 0 || frontier == 0 {
		for _, f := range append(segs, fronts...) {
			os.Remove(f)
		}
		return nil
	}
	h := mc.ChainHeader{Depth: c.level, ResultDepth: int(c.level), Transitions: int(c.totalGen),
		Reduced: c.reduced, Fingerprint: c.fingerprint, NextBase: c.next}
	if _, err := retry.Do(func() error {
		return c.chain.Commit(h, segs, fronts)
	}); err != nil {
		return fmt.Errorf("dist: closing the level-%d barrier: %w", c.level, err)
	}
	c.restore = c.chain.Path()
	return nil
}

// resumeAt makes chain r's barrier the fleet's: its level, transitions
// and each worker's share of its frontier keys, which NextLevel slots.
func (c *coordinator) resumeAt(r *mc.Chain) error {
	c.level, c.totalGen, c.initSeen = r.Depth, uint64(r.Transitions), nil
	return r.FrontierKeys(func(key uint64, shard uint32) {
		w := c.workers[c.assign[shard]]
		w.keys = append(w.keys, key)
	})
}

func (c *coordinator) allReported() bool {
	for _, w := range c.workers {
		if !w.reported {
			return false
		}
	}
	return true
}

// closeBarrier merges the per-worker key sequences into the global
// frontier order and assigns next-level slots. It returns the global
// frontier's length. Each worker's keys ascend (a worker drains in key
// order, and decodeLevelReport refuses any other), and no key is two
// workers', so one W-way merge ranks every key.
func (c *coordinator) closeBarrier() int {
	// A worker's head is its next unranked key: keys[len(slots)].
	c.slots = make([][]uint32, len(c.workers))
	for slot := 0; ; slot++ {
		best := -1
		for i, w := range c.workers {
			if h := len(c.slots[i]); h < len(w.keys) &&
				(best < 0 || w.keys[h] < c.workers[best].keys[len(c.slots[best])]) {
				best = i
			}
		}
		if best < 0 {
			return slot
		}
		c.slots[best] = append(c.slots[best], uint32(slot))
	}
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
