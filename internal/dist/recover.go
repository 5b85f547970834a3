package dist

// Event dispatch and crash recovery.
//
// Every worker death is recovered the same way: the coordinator retires
// the whole fleet and restarts it, one generation on, from the last
// closed barrier — L−1 while level L runs, since the manifest closing L
// is renamed only once every level-L report is in (search.go) — then
// redoes level L: every index restores from that manifest and gets level
// L's Expand again (at L = 0, with its initial states). The new
// generation's mesh links are new, so its End frames close the redone
// level from scratch; a retired worker cannot dial them. Claims carry
// position-derived keys, so the redo is deterministic: the level's files
// come out byte-identical to the ones a first attempt may have written,
// and the verdict is untouched.
//
// A death is a broken or silent connection, or a worker's msgFatal. A
// worker whose barrier files still fail to write after its retries, or
// that hits a protocol error, sends the cause in a msgFatal before it
// exits, and the coordinator logs that cause. One whose control write
// fails past its retries cannot report over the stream that failed: it
// just exits, and its death is logged as the connection's EOF. Only a
// death of an index that has spent its respawn budget (maxRespawns
// recoveries charged to it) ends the run, with ErrUnrecoverable naming
// the worker, the level and the cause: a crash is recovered or reported,
// never guessed at.

import (
	"errors"
	"fmt"
	"time"
)

// maxRespawns bounds the recoveries charged to one worker index; one
// more death of the index ends the run with ErrUnrecoverable.
const maxRespawns = 2

// ErrUnrecoverable reports a worker death the distributed checker
// refuses to recover from (see recover.go's header for the cases). The
// run ends without a verdict; the checkpoint chain is left in place.
var ErrUnrecoverable = errors.New("dist: unrecoverable worker death")

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
		w.states, w.resident = m.States, m.Resident
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
		return c.handleDeath(w, errors.New(m.Err))
	case mtTraceReply, mtBye:
		// Stray: a trace reply outside reconstruction, a Bye outside
		// shutdown. Harmless.
	}
	return nil
}

// onReport books worker w's report of the current level: its slots'
// successor counts, its violation candidates and its share of the next
// frontier.
func (c *coordinator) onReport(w *workerState, m *msgLevelReport) error {
	w.wireFramesCur = m.WireFrames
	w.wireBytesCur = m.WireBytes
	if m.Level != c.level || w.reported {
		return fmt.Errorf("dist: worker %d: level %d report with no Expand outstanding", w.index, m.Level)
	}
	slots := c.slots[w.index]
	if len(m.Counts) != len(slots) {
		return fmt.Errorf("dist: worker %d: level %d report of %d counts for %d slots",
			w.index, m.Level, len(m.Counts), len(slots))
	}
	for i, s := range slots {
		c.counts[s] = int(m.Counts[i])
	}
	if m.HasViol && (c.trBest == nil || m.ViolKey < c.trBest.key) {
		c.trBest = &distViol{key: m.ViolKey, from: m.ViolFrom, to: m.ViolTo}
	}
	w.keys = m.Keys
	w.reported = true
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
// Death handling

// handleDeath recovers from worker w's death at the current level L: it
// retires the fleet, restarts every index from the last closed barrier,
// L−1, and redoes level L — or refuses with ErrUnrecoverable, booking
// the recoveries still open with the level and worker they answered.
func (c *coordinator) handleDeath(w *workerState, cause error) error {
	c.logf("dist: worker %d (generation %d) died at level %d: %v", w.index, c.gen, c.level, cause)
	c.retireFleet()
	if w.respawns >= maxRespawns {
		c.rep.Recoveries = append(c.rep.Recoveries, c.openRecs...)
		c.openRecs = nil
		return fmt.Errorf("%w: worker %d at level %d: respawn budget (%d) spent; the last death: %v",
			ErrUnrecoverable, w.index, c.level, maxRespawns, cause)
	}
	w.respawns++
	c.rep.Respawns++
	c.openRecs = append(c.openRecs, Recovery{Level: c.level, Worker: w.index})
	c.gen++
	var dropped string
	if c.swifi, dropped = swifiAfter(c.swifi, c.level); dropped != "" {
		c.logf("dist: generation %d drops the injections at level %d, fired or not: %s", c.gen, c.level, dropped)
	}
	for _, v := range c.workers {
		if err := c.startIncarnation(v); err != nil {
			return err
		}
	}
	c.issueLevel()
	return nil
}

// retireFleet kills every worker process of the current generation and
// folds their last reported wire counters into the ledger.
func (c *coordinator) retireFleet() {
	for _, v := range c.workers {
		c.launcher.Kill(v.index)
		if v.conn != nil {
			v.conn.shut()
		}
		v.alive = false
		v.helloed = false
		c.rep.Frames += v.wireFramesCur
		c.rep.BytesOnWire += v.wireBytesCur
		v.wireFramesCur, v.wireBytesCur = 0, 0
	}
}
