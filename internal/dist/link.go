package dist

// peerLink: one outbound mesh connection, fed by the worker main loop,
// drained by a dedicated sender goroutine. The queue is unbounded for
// the same reason as the inbox (no backpressure cycles across the
// ring); `flush` tokens let the main loop wait until everything
// enqueued so far is on the wire before declaring it in ExpandDone.
//
// Failure model: the only way a write fails on these transports is the
// destination dying, so a failed write marks the link down and every
// queued and future frame is silently dropped — redialing here would
// race the destination's respawn and deliver frames its replacement
// also receives via replay, double-counting them. The coordinator's
// mtPeerInc announcements (which call `revive` with the replacement's
// incarnation) are the sole path back up: the replays that follow them
// supersede the dropped traffic's declarations wholesale, keeping the
// receiver's counts exact. Links address a specific (index,
// incarnation) endpoint so a stalled-but-alive zombie can never steal
// frames meant for its replacement.

import (
	"io"
	"sync"

	"ttastar/internal/retry"
)

type linkItem struct {
	fb    *frameBuf
	flush chan struct{}
}

type peerLink struct {
	w    *worker
	dest int

	mu      sync.Mutex
	cond    *sync.Cond
	q       []linkItem
	destInc int // incarnation of dest currently addressed
	down    bool
	gen     int
	closed  bool

	conn io.ReadWriteCloser // sender goroutine only, except revive/shut close
}

func newPeerLink(w *worker, dest, destInc int) *peerLink {
	l := &peerLink{w: w, dest: dest, destInc: destInc}
	l.cond = sync.NewCond(&l.mu)
	go l.run()
	return l
}

// enqueue hands a finished frame to the sender; ownership of fb
// transfers (it is pooled after the write, or on drop).
func (l *peerLink) enqueue(fb *frameBuf) {
	fb.finish()
	l.mu.Lock()
	if l.closed || l.down {
		l.mu.Unlock()
		putFrame(fb)
		return
	}
	l.q = append(l.q, linkItem{fb: fb})
	l.cond.Broadcast()
	l.mu.Unlock()
}

// flush returns a channel closed once every previously enqueued frame
// has been written or dropped; nil if the link was never started on
// anything (idle fast path).
func (l *peerLink) flush() chan struct{} {
	l.mu.Lock()
	if l.closed || len(l.q) == 0 {
		l.mu.Unlock()
		return nil
	}
	ch := make(chan struct{})
	l.q = append(l.q, linkItem{flush: ch})
	l.cond.Broadcast()
	l.mu.Unlock()
	return ch
}

// revive retargets the link at a fresh destination incarnation: main
// loop only, on a coordinator mtPeerInc announcement. A no-op when
// nothing changed (same incarnation, link healthy) so duplicate
// announcements can't sever a live connection. Otherwise the
// generation bump strands any in-flight markDown from the old conn,
// and the queue is dropped: every frame ever enqueued was either
// flush-synced before the handler that sent it returned (so the queue
// is empty at control-message boundaries) or belongs to the dead
// incarnation and is superseded by the replay that follows this
// announcement.
func (l *peerLink) revive(inc int) {
	l.mu.Lock()
	if l.closed || (inc == l.destInc && !l.down) {
		l.mu.Unlock()
		return
	}
	l.destInc = inc
	l.gen++
	l.down = false
	if l.conn != nil {
		l.conn.Close()
		l.conn = nil
	}
	l.dropQueueLocked()
	l.mu.Unlock()
}

// dropQueueLocked discards queued frames and releases flush waiters.
func (l *peerLink) dropQueueLocked() {
	for _, it := range l.q {
		if it.fb != nil {
			putFrame(it.fb)
		}
		if it.flush != nil {
			close(it.flush)
		}
	}
	l.q = nil
}

func (l *peerLink) markDown(gen int) {
	l.mu.Lock()
	if l.gen == gen && !l.down {
		l.down = true
		if l.conn != nil {
			l.conn.Close()
			l.conn = nil
		}
	}
	l.mu.Unlock()
}

func (l *peerLink) shut() {
	l.mu.Lock()
	l.closed = true
	if l.conn != nil {
		l.conn.Close()
		l.conn = nil
	}
	l.dropQueueLocked()
	l.cond.Broadcast()
	l.mu.Unlock()
}

func (l *peerLink) run() {
	for {
		l.mu.Lock()
		for len(l.q) == 0 && !l.closed {
			l.cond.Wait()
		}
		if l.closed {
			l.mu.Unlock()
			return
		}
		it := l.q[0]
		l.q = l.q[1:]
		down, gen, conn, destInc := l.down, l.gen, l.conn, l.destInc
		l.mu.Unlock()

		if it.flush != nil {
			close(it.flush)
			continue
		}
		if down {
			putFrame(it.fb)
			continue
		}
		if conn == nil {
			c, err := l.w.mesh.Dial(l.w.cfg.Index, l.w.cfg.Inc, l.dest, destInc)
			if err != nil {
				l.markDown(gen)
				putFrame(it.fb)
				continue
			}
			l.mu.Lock()
			if l.gen != gen || l.closed {
				// Revived or shut while dialing; this conn belongs to a
				// dead generation.
				l.mu.Unlock()
				c.Close()
				putFrame(it.fb)
				continue
			}
			l.conn = c
			conn = c
			l.mu.Unlock()
		}
		_, err := retry.Do(workerWriteAttempts, workerWriteBackoff, nil, func() error {
			if err := l.w.inj.beforeWrite(); err != nil {
				return err
			}
			_, werr := conn.Write(it.fb.b)
			return werr
		})
		if err != nil {
			l.markDown(gen)
		} else {
			l.w.wireFrames.Add(1)
			l.w.wireBytes.Add(uint64(len(it.fb.b)))
		}
		putFrame(it.fb)
	}
}
