package dist

// Mesh: the worker↔worker data plane.
//
// The mesh gives each ordered worker pair its own byte stream so
// mtMeshBatch frames flow point-to-point by the 64-shard hash, and the
// coordinator carries only control traffic. Two transports implement
// it:
//
//   - socketMesh: one Unix domain socket listener per worker and fleet
//     *generation* (w{index}-g{gen}.sock) in a shared rendezvous
//     directory; subprocess workers dial their peers lazily on first
//     send. Dialing retries until the peer listens, so spawn order
//     doesn't matter.
//   - meshHub: the in-process analogue for pipe-launcher tests and
//     benchmarks, built on bufferedPipe rather than net.Pipe — written
//     frames wait in the pipe, as in a kernel socket buffer, instead of
//     blocking the writer until the peer reads.
//
// Every mesh connection opens with a tiny dialer handshake (uvarint
// sender index, uvarint sender generation) so the receiver can
// attribute frame counts to their sender and refuse a worker of another
// generation without trusting frame contents.

import (
	"encoding/binary"
	"fmt"
	"io"
	"net"
	"os"
	"path/filepath"
	"sync"
	"time"
)

// MeshNet is the worker-side factory for data-plane links. Endpoints
// are per (index, generation): a stalled worker of a retired generation
// must never swallow traffic meant for the current one, so workers only
// ever dial the endpoints of their own generation.
type MeshNet interface {
	// Listen binds the accept endpoint of worker index in generation
	// gen. A newer generation's Listen also retires any older endpoint
	// of the index.
	Listen(index, gen int) (MeshListener, error)
	// Dial connects worker `from` to worker `to`, both of generation
	// gen, blocking (with retries) until `to` listens — failing fast
	// once a newer generation of `to` is observed (gen is then retired).
	Dial(from, to, gen int) (io.ReadWriteCloser, error)
}

// MeshListener accepts inbound peer connections, yielding the dialer's
// identity from the handshake.
type MeshListener interface {
	Accept() (conn io.ReadWriteCloser, from, fromGen int, err error)
	Close() error
}

const (
	// meshDialInterval × meshDialAttempts bounds how long a sender waits
	// for a starting peer to listen; comfortably above a worker's start,
	// far below test timeouts.
	meshDialInterval = 10 * time.Millisecond
	meshDialAttempts = 1000
	// meshHandshakeTimeout caps how long Accept waits for the dialer's
	// identity bytes before discarding the connection.
	meshHandshakeTimeout = 5 * time.Second
)

// ---------------------------------------------------------------------
// Unix-socket mesh (subprocess workers)

// socketMesh rendezvouses workers through w{index}-i{inc}.sock files
// in dir.
type socketMesh struct{ dir string }

// NewSocketMesh returns a MeshNet over Unix domain sockets in dir. The
// coordinator creates dir and passes it to workers via msgConfig.
func NewSocketMesh(dir string) MeshNet { return &socketMesh{dir: dir} }

func (m *socketMesh) sockPath(index, gen int) string {
	return filepath.Join(m.dir, fmt.Sprintf("w%d-g%d.sock", index, gen))
}

func (m *socketMesh) Listen(index, gen int) (MeshListener, error) {
	path := m.sockPath(index, gen)
	// A leftover file of the same generation would fail the bind; its
	// owner is dead by construction (the coordinator kills first).
	os.Remove(path)
	ln, err := net.Listen("unix", path)
	if err != nil {
		return nil, fmt.Errorf("dist: mesh listen w%d: %w", index, err)
	}
	return &socketListener{ln: ln}, nil
}

// superseded reports whether a newer generation of `to` has (ever)
// bound a socket — the moment one exists, dialing gen is hopeless.
func (m *socketMesh) superseded(to, gen int) bool {
	for g := gen + 1; ; g++ {
		if _, err := os.Stat(m.sockPath(to, g)); err != nil {
			return g > gen+1 // one gap ends the scan; any hit before it wins
		}
	}
}

func (m *socketMesh) Dial(from, to, gen int) (io.ReadWriteCloser, error) {
	path := m.sockPath(to, gen)
	var conn net.Conn
	var err error
	for i := 0; i < meshDialAttempts; i++ {
		conn, err = net.Dial("unix", path)
		if err == nil {
			break
		}
		if m.superseded(to, gen) {
			return nil, fmt.Errorf("dist: mesh dial w%d→w%d/g%d: generation superseded", from, to, gen)
		}
		time.Sleep(meshDialInterval)
	}
	if err != nil {
		return nil, fmt.Errorf("dist: mesh dial w%d→w%d: %w", from, to, err)
	}
	var hs [2 * binary.MaxVarintLen64]byte
	n := binary.PutUvarint(hs[:], uint64(from))
	n += binary.PutUvarint(hs[n:], uint64(gen))
	if _, err := conn.Write(hs[:n]); err != nil {
		conn.Close()
		return nil, fmt.Errorf("dist: mesh handshake w%d→w%d: %w", from, to, err)
	}
	return conn, nil
}

type socketListener struct{ ln net.Listener }

func (l *socketListener) Accept() (io.ReadWriteCloser, int, int, error) {
	for {
		conn, err := l.ln.Accept()
		if err != nil {
			return nil, 0, 0, err
		}
		if d, ok := conn.(interface{ SetReadDeadline(time.Time) error }); ok {
			d.SetReadDeadline(time.Now().Add(meshHandshakeTimeout))
		}
		br := &oneByteReader{r: conn}
		from, err1 := binary.ReadUvarint(br)
		fromGen, err2 := binary.ReadUvarint(br)
		if err1 != nil || err2 != nil {
			// A dialer that died mid-handshake; drop it and keep serving.
			conn.Close()
			continue
		}
		if d, ok := conn.(interface{ SetReadDeadline(time.Time) error }); ok {
			d.SetReadDeadline(time.Time{})
		}
		return conn, int(from), int(fromGen), nil
	}
}

func (l *socketListener) Close() error { return l.ln.Close() }

// oneByteReader adapts an io.Reader to io.ByteReader without buffering
// past the bytes actually consumed — mandatory for a handshake that
// precedes framed traffic on the same stream.
type oneByteReader struct {
	r io.Reader
	b [1]byte
}

func (o *oneByteReader) ReadByte() (byte, error) {
	if _, err := io.ReadFull(o.r, o.b[:]); err != nil {
		return 0, err
	}
	return o.b[0], nil
}

// ---------------------------------------------------------------------
// In-process mesh hub (pipe-launcher workers)

// meshHub is the in-memory rendezvous: Listen registers an accept
// queue per (index, generation), Dial delivers a bufferedPipe end to
// the exact generation requested. latest lets Dial fail fast when the
// target's generation has been retired by a recovery.
type meshHub struct {
	mu     sync.Mutex
	ls     map[hubKey]*hubListener
	latest map[int]int
}

type hubKey struct{ index, gen int }

func newMeshHub() *meshHub {
	return &meshHub{ls: make(map[hubKey]*hubListener), latest: make(map[int]int)}
}

type hubInbound struct {
	conn    io.ReadWriteCloser
	from    int
	fromGen int
}

type hubListener struct {
	mu      sync.Mutex
	cond    *sync.Cond
	backlog []hubInbound
	closed  bool
}

func (h *meshHub) Listen(index, gen int) (MeshListener, error) {
	key := hubKey{index, gen}
	l := &hubListener{}
	l.cond = sync.NewCond(&l.mu)
	h.mu.Lock()
	if old := h.ls[key]; old != nil {
		old.shut()
	}
	h.ls[key] = l
	if gen > h.latest[index] {
		h.latest[index] = gen
	}
	h.mu.Unlock()
	return l, nil
}

func (h *meshHub) Dial(from, to, gen int) (io.ReadWriteCloser, error) {
	for i := 0; i < meshDialAttempts; i++ {
		h.mu.Lock()
		l := h.ls[hubKey{to, gen}]
		stale := h.latest[to] > gen
		h.mu.Unlock()
		if l != nil {
			local, remote := newBufferedPipe()
			if l.deliver(hubInbound{conn: remote, from: from, fromGen: gen}) {
				return local, nil
			}
			// A closed listener's worker is dead: it never listens again.
			return nil, fmt.Errorf("dist: mesh dial w%d→w%d/g%d: listener gone", from, to, gen)
		}
		if stale {
			return nil, fmt.Errorf("dist: mesh dial w%d→w%d/g%d: generation superseded", from, to, gen)
		}
		time.Sleep(meshDialInterval)
	}
	return nil, fmt.Errorf("dist: mesh dial w%d→w%d: no listener", from, to)
}

func (l *hubListener) deliver(in hubInbound) bool {
	l.mu.Lock()
	defer l.mu.Unlock()
	if l.closed {
		return false
	}
	l.backlog = append(l.backlog, in)
	l.cond.Broadcast()
	return true
}

func (l *hubListener) Accept() (io.ReadWriteCloser, int, int, error) {
	l.mu.Lock()
	defer l.mu.Unlock()
	for len(l.backlog) == 0 && !l.closed {
		l.cond.Wait()
	}
	if len(l.backlog) == 0 {
		return nil, 0, 0, net.ErrClosed
	}
	in := l.backlog[0]
	l.backlog = l.backlog[1:]
	return in.conn, in.from, in.fromGen, nil
}

// Close shuts the accept queue but leaves it registered, so later dials
// of this endpoint fail at once instead of waiting for a listener
// that can never come back.
func (l *hubListener) Close() error {
	l.shut()
	return nil
}

func (l *hubListener) shut() {
	l.mu.Lock()
	l.closed = true
	backlog := l.backlog
	l.backlog = nil
	l.cond.Broadcast()
	l.mu.Unlock()
	for _, in := range backlog {
		in.conn.Close()
	}
}

// ---------------------------------------------------------------------
// bufferedPipe
//
// net.Pipe is a rendezvous: a write blocks until the peer reads, and a
// close discards in-flight bytes. Kernel sockets do neither — written
// data lives in the socket buffer and stays readable after the writer
// dies. The in-process mesh uses this pipe instead of net.Pipe so it
// behaves like the socket mesh: a sender's link goroutine never waits
// on the receiver's reader.

type bpHalf struct {
	mu      sync.Mutex
	cond    *sync.Cond
	buf     []byte
	off     int
	wclosed bool // writer gone: readers drain then EOF
	rclosed bool // reader gone: writes fail, pending data dropped
}

func newBPHalf() *bpHalf {
	h := &bpHalf{}
	h.cond = sync.NewCond(&h.mu)
	return h
}

func (h *bpHalf) write(p []byte) (int, error) {
	h.mu.Lock()
	defer h.mu.Unlock()
	if h.wclosed || h.rclosed {
		return 0, io.ErrClosedPipe
	}
	h.buf = append(h.buf, p...)
	h.cond.Broadcast()
	return len(p), nil
}

func (h *bpHalf) read(p []byte) (int, error) {
	h.mu.Lock()
	defer h.mu.Unlock()
	for {
		if h.off < len(h.buf) {
			n := copy(p, h.buf[h.off:])
			h.off += n
			if h.off == len(h.buf) {
				h.buf = h.buf[:0]
				h.off = 0
			}
			return n, nil
		}
		if h.wclosed {
			return 0, io.EOF
		}
		if h.rclosed {
			return 0, io.ErrClosedPipe
		}
		h.cond.Wait()
	}
}

func (h *bpHalf) closeWrite() {
	h.mu.Lock()
	h.wclosed = true
	h.cond.Broadcast()
	h.mu.Unlock()
}

func (h *bpHalf) closeRead() {
	h.mu.Lock()
	h.rclosed = true
	h.buf = nil
	h.off = 0
	h.cond.Broadcast()
	h.mu.Unlock()
}

type bufferedConn struct {
	rd, wr *bpHalf
}

func (c *bufferedConn) Read(p []byte) (int, error)  { return c.rd.read(p) }
func (c *bufferedConn) Write(p []byte) (int, error) { return c.wr.write(p) }

// Close ends both directions from this side's point of view: the peer
// can still drain what we wrote (then sees EOF), while its further
// writes to us fail fast — mirroring a dead process's socket.
func (c *bufferedConn) Close() error {
	c.wr.closeWrite()
	c.rd.closeRead()
	return nil
}

func newBufferedPipe() (a, b io.ReadWriteCloser) {
	ab, ba := newBPHalf(), newBPHalf()
	return &bufferedConn{rd: ba, wr: ab}, &bufferedConn{rd: ab, wr: ba}
}
