package dist

// Event dispatch and crash recovery.
//
// A worker death has one recovery: respawn the index from its own chain
// of level-barrier snapshots and redo at most its share of the current
// level. The respawned incarnation restores the chain through its last
// acknowledged level (the current one, or the one before),
// re-expands its frontier slots of the current level, and receives the
// level's lost mesh traffic again from the surviving senders.
//
// The mesh data plane makes re-delivery a fleet effort: the in-flight
// level's cross-shard traffic lives in the sending workers' replay
// buffers, so the coordinator issues replay commands — "re-send your
// buffered groups for these shards to this destination" — and tracks
// them as replayOps that gate every Seal. A replay supersedes the
// sender's earlier declarations toward the respawned destination
// (whatever was declared before crossed a wire that died). Claims carry
// deterministic keys, so every replayed delivery is idempotent and the
// verdict is untouched.
//
// Everything else ends the run with ErrUnrecoverable, naming the
// worker, the level and the reason — a crash is recovered or reported,
// never guessed at:
//   - the index has spent its respawn budget (maxRespawns);
//   - its last acknowledged snapshot is two or more levels behind (a
//     barrier snapshot failed to write, and no later barrier has
//     repaired it yet);
//   - it still owes a replay its successor cannot rebuild (it had
//     already completed the level, so the successor redoes nothing).
// The last two need a failed write or two deaths in a tight window;
// SWIFI scenarios inject on first incarnations only.

import (
	"errors"
	"fmt"
	"time"

	"ttastar/internal/mc"
)

// maxRespawns bounds respawns per worker index; one more death of the
// index ends the run with ErrUnrecoverable.
const maxRespawns = 2

// ErrUnrecoverable reports a worker death the distributed checker
// refuses to recover from (see recover.go's header for the cases). The
// run ends without a verdict; snapshot files are left in place.
var ErrUnrecoverable = errors.New("dist: unrecoverable worker death")

// lastAck is the last level whose barrier snapshot the index wrote (-1:
// none) — the restore point of a respawn.
func (w *workerState) lastAck() int32 {
	if len(w.acked) == 0 {
		return -1
	}
	return w.acked[len(w.acked)-1]
}

func (c *coordinator) unrecoverable(w *workerState, format string, args ...any) error {
	return fmt.Errorf("%w: worker %d at level %d: %s",
		ErrUnrecoverable, w.index, c.level, fmt.Sprintf(format, args...))
}

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
		if st.Dest < 0 || st.Dest >= len(c.acc) {
			return fmt.Errorf("dist: worker %d declared groups for worker %d, which does not exist",
				w.index, st.Dest)
		}
		accD := c.acc[st.Dest]
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
		// The replayed buffer is everything this sender has generated for
		// the destination this level — it subsumes whatever the sender
		// declared toward wires that died.
		c.acc[op.dest][w.index] = &sentRec{inc: w.inc, declared: m.Groups}
		return c.opRelease(op, w.index)
	}
	return nil // op canceled by a newer recovery of the same destination
}

func (c *coordinator) onReport(w *workerState, m *msgLevelReport) error {
	w.expandedCur = m.Expanded
	w.wireFramesCur = m.WireFrames
	w.wireBytesCur = m.WireBytes
	// A written snapshot joins the restore chain. A failed one leaves
	// the chain at the last good write, and the next barrier's file —
	// whose segments reach back to that write — repairs it: the levels
	// in between are restorable again from then on.
	switch {
	case m.SnapshotErr != "":
		c.logf("dist: worker %d level %d snapshot failed: %s", w.index, m.Level, m.SnapshotErr)
	case m.Level > w.lastAck():
		w.acked = append(w.acked, m.Level)
	}
	if m.Level != c.level || w.seg == nil || w.seg.filled || w.seg.seq != m.Seq {
		return fmt.Errorf("dist: worker %d: level %d report (seq %d) with no seal outstanding", w.index, m.Level, m.Seq)
	}
	w.seg.keys = m.Keys
	w.seg.filled = true
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

// maskFor is the shard mask assigned to a worker index.
func (c *coordinator) maskFor(index int) (mask [mc.NumShards / 8]byte) {
	m := &msgReplay{}
	for shard := range c.assign {
		if int(c.assign[shard]) == index {
			m.maskSet(shard)
		}
	}
	return m.ShardMask
}

// issueReplays opens a replay op re-delivering the current level's
// buffered groups for dest's shards to dest: every other live worker is
// commanded to replay (recovering ones owe it until their catch-up
// rebuilds their buffers). Level 0 has no mesh traffic — its claims are
// re-delivered from initGroups directly — so no op is opened.
func (c *coordinator) issueReplays(dest int) {
	if c.level < 1 {
		return
	}
	op := &replayOp{level: c.level, dest: dest, mask: c.maskFor(dest), waiting: map[int]bool{}}
	for _, v := range c.workers {
		if !v.alive || v.index == dest {
			continue
		}
		op.waiting[v.index] = true
		if v.helloed {
			c.sendTo(v, op.msg())
		} else {
			v.owed = append(v.owed, op)
		}
	}
	if len(op.waiting) > 0 { // else a single-worker fleet: nothing to wait on
		c.replayOps = append(c.replayOps, op)
	}
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

// opFor locates the replay op feeding a recovering destination.
func (c *coordinator) opFor(dest int) *replayOp {
	for _, op := range c.replayOps {
		if op.dest == dest {
			return op
		}
	}
	return nil
}

// flushOwed sends (or absorbs) the replay commands a recovering worker
// accumulated. Must run after the worker's redo expansion is enqueued —
// the redo is what rebuilds the replay buffer the commands read. A
// non-self-only redo re-sends every group a replay would, so its
// ExpandDone declarations stand in for the replay entirely.
func (c *coordinator) flushOwed(w *workerState) error {
	owed := w.owed
	w.owed = nil
	for _, op := range owed {
		if w.redoSelfOnly {
			c.sendTo(w, op.msg())
		} else if err := c.opRelease(op, w.index); err != nil {
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

// handleDeath retires the incarnation and respawns the index from its
// last acknowledged snapshot, or refuses with ErrUnrecoverable.
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
	sending := false
	for id, pe := range c.pending {
		if pe.wi == w.index {
			sending = sending || !pe.selfOnly
			delete(c.pending, id)
		}
	}
	// With no sending expansion of its in flight, all its mesh groups
	// were flushed and declared before it died ("declared ⇒ delivered":
	// they sit in kernel socket buffers the receivers drain at their own
	// pace), so the redo need not re-send them — and must not, or the
	// receivers' counts would overshoot the accounting. A sending
	// expansion is only ever pending before the level's seal, so a
	// sending redo never feeds stores that already drained.
	w.redoSelfOnly = !sending

	// The wires into this worker died with it: whatever was declared
	// toward it is unaccountable until recovery re-delivers it.
	c.acc[w.index] = map[int]*sentRec{}
	c.cancelOpsFor(w.index)
	w.owed = nil

	ack := w.lastAck()
	switch {
	case w.respawns >= maxRespawns:
		return c.unrecoverable(w, "respawn budget (%d) spent", maxRespawns)
	case ack < c.level-1:
		return c.unrecoverable(w, "last acknowledged barrier snapshot is level %d, %d levels behind",
			ack, c.level-ack)
	}
	// Replay duties the dead incarnation still held: the successor can
	// serve them only by re-expanding the level (re-expansion rebuilds
	// the buffer even self-only); a sending redo replaces the replay
	// with fresh declarations outright.
	for _, op := range c.replayOps {
		if !op.waiting[w.index] {
			continue
		}
		if ack == c.level {
			return c.unrecoverable(w, "owes a replay its successor cannot rebuild (it had completed the level)")
		}
		w.owed = append(w.owed, op)
	}
	w.respawns++
	c.rep.Respawns++
	w.inc++

	// Launch the replacement first: startIncarnation broadcasts the new
	// incarnation (mtPeerInc) to the survivors, and that broadcast must
	// sit ahead of the replay commands below in each survivor's FIFO
	// queue — otherwise a replay could flow to the dead incarnation's
	// endpoint.
	if err := c.startIncarnation(w); err != nil {
		return err
	}
	// Re-deliver the in-flight level's mesh traffic from the survivors'
	// buffers (commands reach recovering survivors at their own
	// catch-up).
	if ack < c.level {
		c.issueReplays(w.index)
	}
	w.needCatchup = true
	return nil
}

// enqueueCatchup brings a respawned worker back to the current level.
// It runs on the new incarnation's Hello, so everything enqueued here
// lands after its Config in FIFO order.
func (c *coordinator) enqueueCatchup(w *workerState) error {
	rec := &openRecovery{rec: Recovery{Level: c.level, Worker: w.index}}
	c.openRecs = append(c.openRecs, rec)
	if w.lastAck() == c.level {
		// Died after completing the level: the snapshot chain restored
		// its full frontier and its report was already filled; nothing
		// to redo.
		if w.seg == nil || !w.seg.filled {
			return fmt.Errorf("dist: worker %d restored at level %d with a report still outstanding", w.index, c.level)
		}
		return nil
	}
	// Redo the level: the worker's own slot expansions, the mesh traffic
	// the fleet re-delivers, and its seal once those replays settle (if
	// the fleet already sealed) — the seal's Expects must quote settled
	// counts.
	// (The Expand goes out even with no slots: it is what rebuilds — or,
	// empty, starts — the replay buffer owed replays read.)
	rec.slots = c.slots[w.index]
	c.issueExpand(w, rec.slots, w.redoSelfOnly)
	if c.level == 0 {
		c.resendInits(w)
	}
	if err := c.flushOwed(w); err != nil {
		return err
	}
	return c.afterOp(c.opFor(w.index), func() error {
		if c.sealed {
			c.sealTo(w)
		}
		return nil
	})
}
