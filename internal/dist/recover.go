package dist

// Event dispatch and crash recovery.
//
// A worker death is recovered from the chain of level-barrier delta
// snapshots it acknowledged, so a crash costs at most the dead worker's
// share of one level (two when the latest delta's write had itself
// failed). Recovery is a respawn while the index has respawn budget,
// else a takeover: the dead worker's shards are reassigned to the
// lowest-index survivor, which merges the snapshot chain into its own
// store and re-expands only the dead worker's frontier slots.
//
// The mesh data plane makes re-delivery a fleet effort: the in-flight
// level's cross-shard traffic lives in the sending workers' replay
// buffers, so the coordinator issues replay commands — "re-send your
// buffered groups for these shards to this destination" — and tracks
// them as replayOps that gate every Seal. A replay to a respawned
// destination supersedes the sender's earlier declarations toward it
// (reset accounting: whatever was declared before crossed a wire that
// died); a replay to a takeover survivor adds absorbed-shard traffic
// it never saw. Claims carry deterministic keys, so every replayed
// delivery is idempotent and the verdict is untouched.
//
// Known unrecoverable corners (the run aborts loudly): a worker dying
// while a prior takeover's shards are not yet covered by its own
// snapshots (taint, as before), and a worker dying while it still owes
// a replay that its successor cannot regenerate — e.g. the buffered
// level precedes what its catch-up re-expands. Both need two deaths in
// a tight window; SWIFI scenarios inject on first incarnations only.

import (
	"fmt"
	"time"

	"ttastar/internal/mc"
)

// step processes exactly one event.
func (c *coordinator) step() error {
	ev := <-c.events
	switch ev.kind {
	case evTick:
		return c.checkDeadlines()
	case evDead:
		if w := c.eventWorker(ev); w != nil && w.alive {
			return c.handleDeath(w, ev.err)
		}
	case evMsg:
		if w := c.eventWorker(ev); w != nil {
			return c.dispatch(w, ev.typ, ev.payload)
		}
	}
	return nil
}

// checkDeadlines declares dead every worker silent past the heartbeat
// deadline.
func (c *coordinator) checkDeadlines() error {
	now := time.Now().UnixNano()
	for _, w := range c.workers {
		if !w.alive || w.conn == nil {
			continue
		}
		if now-w.conn.lastHeard.Load() > int64(c.o.HeartbeatDeadline) {
			if err := c.handleDeath(w, fmt.Errorf("silent for over %s", c.o.HeartbeatDeadline)); err != nil {
				return err
			}
		}
	}
	return nil
}

func (c *coordinator) dispatch(w *workerState, typ byte, payload []byte) error {
	switch typ {
	case mtHello:
		m, err := decodeHello(payload)
		if err != nil {
			return fmt.Errorf("dist: worker %d: %w", w.index, err)
		}
		if m.Err != "" {
			return fmt.Errorf("dist: worker %d failed to start: %s", w.index, m.Err)
		}
		w.helloed = true
		if w.needCatchup {
			w.needCatchup = false
			return c.enqueueCatchup(w)
		}
	case mtExpandDone:
		m, err := decodeExpandDone(payload)
		if err != nil {
			return fmt.Errorf("dist: worker %d: %w", w.index, err)
		}
		return c.onExpandDone(w, m)
	case mtReplayDone:
		m, err := decodeReplayDone(payload)
		if err != nil {
			return fmt.Errorf("dist: worker %d: %w", w.index, err)
		}
		return c.onReplayDone(w, m)
	case mtLevelReport:
		m, err := decodeLevelReport(payload)
		if err != nil {
			return fmt.Errorf("dist: worker %d: %w", w.index, err)
		}
		return c.onReport(w, m)
	case mtFatal:
		m, err := decodeFatal(payload)
		if err != nil {
			return fmt.Errorf("dist: worker %d: %w", w.index, err)
		}
		return fmt.Errorf("dist: worker %d: %s", w.index, m.Err)
	case mtTraceReply, mtBye:
		// Stray: a trace reply outside reconstruction, a Bye outside
		// shutdown. Harmless.
	}
	return nil
}

func (c *coordinator) onExpandDone(w *workerState, m *msgExpandDone) error {
	pe, ok := c.pending[m.ID]
	if !ok || pe.wi != w.index {
		return nil // superseded by a recovery reissue
	}
	delete(c.pending, m.ID)
	if pe.level != c.level {
		return nil // previous-level catch-up: its counts are long final
	}
	if len(m.Counts) != len(pe.slots) {
		return fmt.Errorf("dist: worker %d: expand %d returned %d counts for %d slots",
			w.index, m.ID, len(m.Counts), len(pe.slots))
	}
	for i, s := range pe.slots {
		c.counts[s] = int(m.Counts[i])
	}
	// Fold the declared mesh-group counts into the barrier accounting.
	// The sender flush-synced these groups onto its peer links before
	// declaring them, so a declared group is receivable even if the
	// sender dies a microsecond from now.
	for _, st := range m.SentTo {
		if st.Dest < 0 || st.Dest >= len(c.accCur) {
			return fmt.Errorf("dist: worker %d declared groups for worker %d, which does not exist",
				w.index, st.Dest)
		}
		accD := c.accCur[st.Dest]
		rec := accD[w.index]
		if rec == nil || rec.inc != w.inc {
			rec = &sentRec{inc: w.inc}
			accD[w.index] = rec
		}
		rec.declared += st.Groups
	}
	if m.HasViol && (c.trBest == nil || m.ViolKey < c.trBest.key) {
		c.trBest = &distViol{key: m.ViolKey, from: m.ViolFrom, to: m.ViolTo}
	}
	return nil
}

func (c *coordinator) onReplayDone(w *workerState, m *msgReplayDone) error {
	for _, op := range c.replayOps {
		if op.level != m.Level || op.dest != m.Dest || !op.waiting[w.index] {
			continue
		}
		if acc := c.accFor(op.level); acc != nil && op.dest != w.index {
			accD := acc[op.dest]
			if op.reset {
				// The replayed buffer is everything this sender has
				// generated for the destination this level — it subsumes
				// whatever the sender declared toward wires that died.
				accD[w.index] = &sentRec{inc: w.inc, declared: m.Groups}
			} else {
				rec := accD[w.index]
				if rec == nil || rec.inc != w.inc {
					rec = &sentRec{inc: w.inc}
					accD[w.index] = rec
				}
				rec.declared += m.Groups
			}
		}
		return c.opRelease(op, w.index)
	}
	return nil // op canceled by a newer recovery of the same destination
}

func (c *coordinator) onReport(w *workerState, m *msgLevelReport) error {
	w.expandedCur = m.Expanded
	w.wireFramesCur = m.WireFrames
	w.wireBytesCur = m.WireBytes
	if m.Snapshot != "" {
		w.lastAckLevel = m.Level
		w.lastAckPath = m.Snapshot
		if w.taintLevel >= 0 && m.Level > w.taintLevel {
			w.taintLevel = -1 // this snapshot covers the absorbed shards
		}
	} else if m.SnapshotErr != "" {
		c.logf("dist: worker %d level %d snapshot failed: %s", w.index, m.Level, m.SnapshotErr)
	}
	if m.Level != c.level {
		return nil // catch-up ack of an already-closed level
	}
	filled := false
	for _, sg := range w.segs {
		if !sg.filled && sg.seq == m.Seq {
			sg.keys = m.Keys
			sg.filled = true
			filled = true
			break
		}
	}
	if !filled {
		return fmt.Errorf("dist: worker %d: level %d report (seq %d) with no seal outstanding", w.index, m.Level, m.Seq)
	}
	w.states = m.States
	w.resident = m.Resident
	if m.Full {
		c.anyFull = true
	}
	for i, k := range m.StViolKeys {
		c.stViols = append(c.stViols, distViol{key: k, isState: true, enc: m.StViolEncs[i]})
	}
	return nil
}

// ---------------------------------------------------------------------
// Replay-op plumbing

func (op *replayOp) msg() *msgReplay {
	return &msgReplay{Level: op.level, Dest: op.dest, ShardMask: op.mask}
}

// maskFor is the shard mask currently assigned to a worker index.
func (c *coordinator) maskFor(index int) (mask [mc.NumShards / 8]byte) {
	m := &msgReplay{}
	for shard := range c.assign {
		if int(c.assign[shard]) == index {
			m.maskSet(shard)
		}
	}
	return m.ShardMask
}

// issueReplays opens a replay op re-delivering the level's buffered
// groups for the masked shards to dest: every active worker is
// commanded to replay (recovering ones owe it until their catch-up
// rebuilds their buffers). Level 0 has no mesh traffic — its claims are
// re-delivered from initGroups directly — so no op is opened.
func (c *coordinator) issueReplays(level int32, dest int, mask [mc.NumShards / 8]byte, reset bool) *replayOp {
	if level < 1 {
		return nil
	}
	op := &replayOp{level: level, dest: dest, mask: mask, reset: reset, waiting: map[int]bool{}}
	for _, v := range c.workers {
		if !v.alive || v.retired {
			continue
		}
		if v.index == dest && reset {
			continue // a fresh respawn holds no buffer toward itself
		}
		op.waiting[v.index] = true
		if v.helloed {
			c.sendTo(v, op.msg())
		} else {
			v.owed = append(v.owed, op)
		}
	}
	if len(op.waiting) == 0 {
		return nil // single-worker fleet: nothing to wait on
	}
	c.replayOps = append(c.replayOps, op)
	return op
}

// afterOp runs f once op has no outstanding ReplayDones — immediately
// when there is no op to wait on.
func (c *coordinator) afterOp(op *replayOp, f func() error) error {
	if op == nil || len(op.waiting) == 0 {
		return f()
	}
	op.then = append(op.then, f)
	return nil
}

// opRelease discharges one sender's duty on an op and reaps completed
// ops (running their continuations).
func (c *coordinator) opRelease(op *replayOp, sender int) error {
	delete(op.waiting, sender)
	return c.reapOps()
}

func (c *coordinator) reapOps() error {
	for i := 0; i < len(c.replayOps); {
		op := c.replayOps[i]
		if len(op.waiting) > 0 {
			i++
			continue
		}
		c.replayOps = append(c.replayOps[:i], c.replayOps[i+1:]...)
		for _, f := range op.then {
			if err := f(); err != nil {
				return err
			}
		}
	}
	return nil
}

// cancelOpsFor drops every op targeting a destination that just died
// again; the new recovery supersedes them. Late ReplayDones for a
// canceled op are ignored by onReplayDone.
func (c *coordinator) cancelOpsFor(dest int) {
	kept := c.replayOps[:0]
	for _, op := range c.replayOps {
		if op.dest != dest {
			kept = append(kept, op)
		}
	}
	c.replayOps = kept
	for _, w := range c.workers {
		ow := w.owed[:0]
		for _, op := range w.owed {
			if op.dest != dest {
				ow = append(ow, op)
			}
		}
		w.owed = ow
	}
}

// findResetOp locates the (unique) respawn replay op for a recovering
// destination at a level.
func (c *coordinator) findResetOp(level int32, dest int) *replayOp {
	for _, op := range c.replayOps {
		if op.level == level && op.dest == dest && op.reset {
			return op
		}
	}
	return nil
}

// flushOwedLevel sends (or absorbs) the replay commands a recovering
// worker accumulated for one level. Must run after the worker's redo
// expansion of that level is enqueued — the redo is what rebuilds the
// replay buffer the commands read. A non-self-only redo of the current
// level re-sends every group a replay would, so its ExpandDone
// declarations stand in for the replay entirely.
func (c *coordinator) flushOwedLevel(w *workerState, level int32) error {
	kept := w.owed[:0]
	var released []*replayOp
	for _, op := range w.owed {
		if op.level != level {
			kept = append(kept, op)
			continue
		}
		if level == c.level && !w.redoSelfOnly {
			released = append(released, op)
			continue
		}
		c.sendTo(w, op.msg())
		kept = append(kept, op) // still waiting on its ReplayDone
	}
	w.owed = kept
	for _, op := range released {
		if err := c.opRelease(op, w.index); err != nil {
			return err
		}
	}
	return nil
}

// resendInits re-delivers the level-0 initial-state claims owned by a
// recovering worker's shards, straight from the coordinator's copy over
// the control plane (uncounted: level 0 has no seal Expects).
func (c *coordinator) resendInits(w *workerState) {
	for shard, g := range c.initGroups {
		if g != nil && int(c.assign[shard]) == w.index {
			c.sendTo(w, &msgBatch{Level: 0, Base: 0, Groups: []batchGroup{*g}})
		}
	}
}

// ---------------------------------------------------------------------
// Death handling

// handleDeath retires the incarnation and starts recovery: respawn while
// the index has budget, takeover past it.
func (c *coordinator) handleDeath(w *workerState, cause error) error {
	if !w.alive {
		return nil
	}
	c.logf("dist: worker %d (incarnation %d) died at level %d: %v", w.index, w.inc, c.level, cause)
	c.launcher.Kill(w.index)
	w.conn.shut()
	w.alive = false
	w.helloed = false
	w.needCatchup = false
	w.expandedDead += w.expandedCur
	w.expandedCur = 0
	w.wireFramesDead += w.wireFramesCur
	w.wireFramesCur = 0
	w.wireBytesDead += w.wireBytesCur
	w.wireBytesCur = 0
	if w.taintLevel >= 0 {
		return fmt.Errorf("dist: worker %d died before its snapshots covered a prior takeover; overlapping crashes are unrecoverable", w.index)
	}
	hadPendingCur := false
	for id, pe := range c.pending {
		if pe.wi == w.index {
			if pe.level == c.level {
				hadPendingCur = true
			}
			delete(c.pending, id)
		}
	}
	// With no expansion of its in flight, all its mesh groups were
	// flushed and declared before it died ("declared ⇒ delivered": they
	// sit in kernel socket buffers the receivers drain at their own
	// pace), so the redo need not re-send them — and must not, or the
	// receivers' counts would overshoot the accounting.
	w.redoSelfOnly = !hadPendingCur

	// The wires into this worker died with it: whatever was declared
	// toward it is unaccountable until recovery re-delivers it.
	c.accCur[w.index] = map[int]*sentRec{}
	c.accPrev[w.index] = map[int]*sentRec{}
	c.cancelOpsFor(w.index)
	w.owed = nil

	if w.respawns < c.o.MaxRespawns {
		w.respawns++
		c.rep.Respawns++
		w.inc++
		ack := w.lastAckLevel

		// Replay duties the dead incarnation still held: the successor
		// can serve them iff its catch-up re-expands the buffered level
		// (re-expansion rebuilds the buffer even self-only); a
		// non-self-only redo of the current level replaces the replay
		// with fresh declarations outright.
		var released []*replayOp
		for _, op := range c.replayOps {
			if !op.waiting[w.index] {
				continue
			}
			redone := (op.level == c.level && (ack == c.level-1 || ack == c.level-2)) ||
				(op.level == c.level-1 && ack == c.level-2)
			if !redone {
				return fmt.Errorf("dist: worker %d died owing a level-%d replay its successor cannot regenerate; overlapping crashes are unrecoverable",
					w.index, op.level)
			}
			if op.level == c.level && !w.redoSelfOnly {
				released = append(released, op)
			} else {
				w.owed = append(w.owed, op)
			}
		}
		for _, op := range released {
			if err := c.opRelease(op, w.index); err != nil {
				return err
			}
		}

		// Launch the replacement first: startIncarnation broadcasts the
		// new incarnation (mtPeerInc) to the survivors, and that
		// broadcast must sit ahead of the replay commands below in each
		// survivor's FIFO queue — otherwise a replay could flow to the
		// dead incarnation's endpoint.
		restore := append([]restoreSrc(nil), w.chains...)
		if ack >= 0 {
			restore = append(restore, restoreSrc{Index: w.index, Through: ack, Frontier: true})
		}
		if err := c.startIncarnation(w, restore); err != nil {
			return err
		}

		// Re-deliver the in-flight levels' mesh traffic from the
		// survivors' buffers (commands reach recovering survivors at
		// their own catch-up).
		if ack < c.level {
			c.issueReplays(c.level, w.index, c.maskFor(w.index), true)
		}
		if ack == c.level-2 {
			c.issueReplays(c.level-1, w.index, c.maskFor(w.index), true)
		}
		w.needCatchup = true
		return nil
	}
	return c.takeover(w)
}

// enqueueCatchup brings a respawned worker back to the current level.
// It runs on the new incarnation's Hello, so everything enqueued here
// lands after its Config in FIFO order. Seals are deferred until the
// replay ops feeding the worker complete — their Expects must quote
// settled counts — which also serializes (via the worker's in-order
// control queue) the previous level's drain before the current redo.
func (c *coordinator) enqueueCatchup(w *workerState) error {
	ack := w.lastAckLevel
	rec := &openRecovery{rec: Recovery{Level: c.level, Worker: w.index, Mode: "respawn"}}
	c.openRecs = append(c.openRecs, rec)
	switch {
	case ack == c.level:
		// Died after completing the level. The snapshot chain restored
		// its full frontier and its report segments were already filled;
		// nothing to redo.
		for _, sg := range w.segs {
			if !sg.filled {
				return fmt.Errorf("dist: worker %d restored at level %d with a report still outstanding", w.index, ack)
			}
		}
		return nil
	case ack == c.level-1:
		return c.redoCurrent(w, rec)
	case ack == c.level-2:
		// The previous barrier's delta write had failed: redo that level
		// self-only first, wait for its replays, seal it (rebuilding the
		// missing delta file), then redo the current level.
		prev := c.level - 1
		if slots := c.prevSlots[w.index]; prev >= 1 && len(slots) > 0 {
			c.issueExpand(w, prev, c.prevBase, slots, false, true, false)
			rec.prevSlots = append([]uint32(nil), slots...)
		}
		if prev == 0 {
			c.resendInits(w)
		}
		if err := c.flushOwedLevel(w, prev); err != nil {
			return err
		}
		return c.afterOp(c.findResetOp(prev, w.index), func() error {
			// This seal's report is consumed as a snapshot ack only — the
			// level's barrier closed long ago.
			c.sealPrev(w)
			return c.redoCurrent(w, rec)
		})
	default:
		return fmt.Errorf("dist: worker %d died %d levels past its last snapshot (level %d); unrecoverable",
			w.index, c.level-ack, ack)
	}
}

// redoCurrent replays the current level for a respawned worker: its own
// slot expansions, the mesh traffic the fleet re-delivers, and its seal
// once those replays settle (if the fleet already sealed).
func (c *coordinator) redoCurrent(w *workerState, rec *openRecovery) error {
	if slots := c.slots[w.index]; len(slots) > 0 {
		c.issueExpand(w, c.level, c.base, slots, false, w.redoSelfOnly, false)
		rec.slots = append([]uint32(nil), slots...)
	}
	if c.level == 0 {
		c.resendInits(w)
	}
	if err := c.flushOwedLevel(w, c.level); err != nil {
		return err
	}
	return c.afterOp(c.findResetOp(c.level, w.index), func() error {
		if c.sealed {
			c.sealTo(w, false)
		}
		return nil
	})
}

// sealPrev seals the previous level on a two-level catch-up, quoting
// the settled previous-level counts. No report segment: that barrier
// closed long ago, so the report is consumed as a snapshot ack only.
func (c *coordinator) sealPrev(w *workerState) {
	seq := c.sealSeq
	c.sealSeq++
	m := &msgSeal{Level: c.level - 1, Seq: seq}
	for sender, rec := range c.accPrev[w.index] {
		if rec.declared > 0 {
			m.Expect = append(m.Expect, expectCount{Sender: sender, SenderInc: rec.inc, Groups: rec.declared})
		}
	}
	c.sendTo(w, m)
}

// takeover reassigns a dead worker's shards to the lowest-index
// survivor, which absorbs the snapshot chain and redoes at most the
// dead worker's share of the current level.
func (c *coordinator) takeover(d *workerState) error {
	var s *workerState
	for _, cand := range c.workers {
		if cand.alive && cand.helloed && !cand.retired {
			s = cand
			break
		}
	}
	if s == nil {
		return fmt.Errorf("dist: worker %d is out of respawns and no worker survives to take over", d.index)
	}
	c.logf("dist: worker %d takes over worker %d's shards at level %d", s.index, d.index, c.level)
	c.rep.Takeovers++
	d.retired = true
	ack := d.lastAckLevel

	// Replay duties the dead worker still held: only its mid-expand
	// tail re-expansion (non-self-only) can re-generate them.
	var released []*replayOp
	for _, op := range c.replayOps {
		if !op.waiting[d.index] {
			continue
		}
		if op.level == c.level && ack == c.level-1 && !d.redoSelfOnly {
			released = append(released, op)
		} else {
			return fmt.Errorf("dist: worker %d retired owing a level-%d replay no survivor can regenerate; overlapping crashes are unrecoverable",
				d.index, op.level)
		}
	}
	for _, op := range released {
		if err := c.opRelease(op, d.index); err != nil {
			return err
		}
	}

	// Capture the absorbed shard set before the ownership map changes.
	absorbed := c.maskFor(d.index)
	for i := range c.assign {
		if int(c.assign[i]) == d.index {
			c.assign[i] = uint8(s.index)
		}
	}
	for _, w := range c.workers {
		if w.alive {
			c.sendTo(w, &msgAssign{Assign: c.assign})
			// Tombstone the dead index's mesh endpoint: it will never
			// listen again, so links to it drop frames immediately
			// instead of burning the dial-retry budget mid-flush.
			c.sendTo(w, &msgPeerInc{Index: d.index, Gone: true})
		}
	}
	// The survivor inherits the dead worker's delta chains: its own
	// future respawns must merge them to rebuild the absorbed history.
	if ack >= 0 {
		s.chains = append(s.chains, d.chains...)
		s.chains = append(s.chains, restoreSrc{Index: d.index, Through: ack})
	}

	rec := &openRecovery{rec: Recovery{Level: c.level, Worker: d.index, Mode: "takeover"}}
	c.openRecs = append(c.openRecs, rec)
	switch {
	case ack == c.level:
		// The dead worker completed the level: absorb its snapshot chain
		// and its already-reported frontier keys; nothing to re-expand.
		// The Restore must land after the survivor's own seal drain, or
		// the appended frontier tail would be clobbered by it — the
		// worker's seal-blocked control queue guarantees exactly that
		// once the Restore is enqueued behind the Seal.
		var dKeys []uint64
		for _, sg := range d.segs {
			if !sg.filled {
				return fmt.Errorf("dist: worker %d retired at level %d with a report still outstanding", d.index, ack)
			}
			dKeys = append(dKeys, sg.keys...)
		}
		states, resident := d.states, d.resident
		do := func() {
			c.sendTo(s, &msgRestore{Index: d.index, Through: ack})
			s.segs = append(s.segs, &keySegment{keys: dKeys, filled: true})
			s.extraStates += states
			s.extraResident += resident
		}
		if c.sealed {
			do()
		} else {
			c.afterSeal = append(c.afterSeal, do)
		}
	case ack == c.level-1:
		// Mid-level: merge the chain, re-expand the dead worker's
		// frontier slots off the restored tail, and have the whole fleet
		// (the survivor included, applying its own buffer locally)
		// re-deliver the mesh traffic buffered for the absorbed shards.
		if ack < 0 {
			return fmt.Errorf("dist: worker %d left no snapshot to take over", d.index)
		}
		c.sendTo(s, &msgRestore{Index: d.index, Through: ack})
		if slots := c.slots[d.index]; len(slots) > 0 {
			c.issueExpand(s, c.level, c.base, slots, true, d.redoSelfOnly, true)
			rec.slots = append([]uint32(nil), slots...)
		}
		op := c.issueReplays(c.level, s.index, absorbed, false)
		if err := c.afterOp(op, func() error {
			if c.sealed {
				c.sealTo(s, true)
			}
			return nil
		}); err != nil {
			return err
		}
	default:
		return fmt.Errorf("dist: worker %d died %d levels past its last snapshot; takeover cannot catch up",
			d.index, c.level-ack)
	}
	s.taintLevel = c.level
	return nil
}
