package dist

// peerLink: one outbound mesh connection, fed by the kernel goroutines
// and drained by a sender goroutine. The queue is unbounded for the
// same reason as the inbox (no backpressure cycles across the ring).
// A link is one FIFO stream that is dialed once and never redialed, so
// the End frame the main loop enqueues behind a level's last batch
// reaches the destination after every batch of that level: nobody waits
// for the queue to drain, and the receiver's count of the groups before
// the End is the whole level's.
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

type peerLink struct {
	w    *worker
	dest int

	mu     sync.Mutex
	cond   *sync.Cond
	q      []*frameBuf
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
// transfers (it is pooled after the write, or on drop). The worker's
// wire counters count it here, so a LevelReport counts every frame of
// its level.
func (l *peerLink) enqueue(fb *frameBuf) {
	wire := fb.finish()
	l.mu.Lock()
	if l.closed || l.down {
		l.mu.Unlock()
		putFrame(fb)
		return
	}
	l.w.wireFrames.Add(1)
	l.w.wireBytes.Add(uint64(len(wire)))
	l.q = append(l.q, fb)
	l.cond.Broadcast()
	l.mu.Unlock()
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
	for _, fb := range l.q {
		putFrame(fb)
	}
	l.q = nil
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
		fb := l.q[0]
		l.q = l.q[1:]
		down, conn := l.down, l.conn
		l.mu.Unlock()

		if down {
			putFrame(fb)
			continue
		}
		if conn == nil {
			c, err := l.w.mesh.dial(l.w.cfg.Index, l.dest, l.w.cfg.Gen, l.w.retired)
			if err != nil {
				l.markDown()
				putFrame(fb)
				continue
			}
			l.mu.Lock()
			if l.closed {
				// Shut while dialing.
				l.mu.Unlock()
				c.Close()
				putFrame(fb)
				continue
			}
			l.conn = c
			conn = c
			l.mu.Unlock()
		}
		_, err := retry.Do(func() error {
			if err := l.w.inj.beforeWrite(); err != nil {
				return err
			}
			_, werr := conn.Write(fb.b)
			return werr
		})
		if err != nil {
			l.markDown()
		}
		putFrame(fb)
	}
}
