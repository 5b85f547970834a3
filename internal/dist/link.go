package dist

// peerLink: one outbound mesh connection, fed by the worker main loop,
// drained by a dedicated sender goroutine. The queue is unbounded for
// the same reason as the inbox (no backpressure cycles across the
// ring); `flush` tokens let the main loop wait until everything
// enqueued so far is on the wire before declaring it in ExpandDone.
//
// Failure model: the only way a write fails on a mesh socket is the
// destination dying, so a failed write marks the link down for good and
// every queued and future frame is dropped. Nothing redials: a death
// restarts the whole fleet (recover.go), and the new generation builds
// new links. A link addresses the (index, generation) endpoint of its
// own fleet, so a stalled-but-alive worker of an older generation can
// never deliver into, or receive from, the current one.

import (
	"net"
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

	mu     sync.Mutex
	cond   *sync.Cond
	q      []linkItem
	down   bool
	closed bool

	conn net.Conn // sender goroutine only, except markDown/shut close
}

func newPeerLink(w *worker, dest int) *peerLink {
	l := &peerLink{w: w, dest: dest}
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

func (l *peerLink) markDown() {
	l.mu.Lock()
	if !l.down {
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
		down, conn := l.down, l.conn
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
			c, err := l.w.mesh.dial(l.w.cfg.Index, l.dest, l.w.cfg.Gen, l.w.retired)
			if err != nil {
				l.markDown()
				putFrame(it.fb)
				continue
			}
			l.mu.Lock()
			if l.closed {
				// Shut while dialing.
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
			l.markDown()
		} else {
			l.w.wireFrames.Add(1)
			l.w.wireBytes.Add(uint64(len(it.fb.b)))
		}
		putFrame(it.fb)
	}
}
