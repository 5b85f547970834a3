package dist

// Mesh: the worker↔worker data plane.
//
// The mesh gives each ordered worker pair its own byte stream so
// mtMeshBatch frames flow point-to-point by the 64-shard hash, and the
// coordinator carries only control traffic. Every worker — subprocess
// or pipe-launcher goroutine alike — listens on one Unix domain socket
// per fleet generation and dials its peers lazily on first send;
// dialing retries until the peer listens, so spawn order doesn't
// matter.
//
// The sockets live in Linux's abstract namespace, so nothing is made on
// disk or left behind by a crash, and an address is as short whatever
// TMPDIR is (a filesystem socket path holds at most 107 bytes). A
// worker's address is a hash of its index, its generation and the
// run's random mesh name, which the coordinator hands only to its
// workers, in msgConfig. Abstract sockets have no file permissions and
// their names are listed to every local user, so both ends check the
// other's user id (SO_PEERCRED) before a byte is read, and a listed
// address reveals no other that another user could bind first.
//
// A dial gives up at once when its worker has lost the coordinator: the
// coordinator retires a generation by cutting each of its workers off,
// so a stalled worker of a retired generation never spends the retry
// budget on peers that will not listen again.
//
// Every mesh connection opens with a tiny dialer handshake (uint32
// sender index, uint32 sender generation) so the receiver can
// attribute frame counts to their sender and refuse a worker of another
// generation without trusting frame contents.

import (
	"crypto/rand"
	"crypto/sha256"
	"encoding/binary"
	"encoding/hex"
	"fmt"
	"io"
	"net"
	"runtime"
	"time"
)

const (
	// meshDialInterval × meshDialAttempts bounds how long a sender waits
	// for a starting peer to listen; comfortably above a worker's start,
	// far below test timeouts.
	meshDialInterval = 10 * time.Millisecond
	meshDialAttempts = 1000
	// meshHandshakeTimeout caps how long an accept waits for the dialer's
	// identity bytes before discarding the connection.
	meshHandshakeTimeout = 5 * time.Second
)

// socketMesh addresses the endpoints of one run's workers and admits
// only peers that run as uid.
type socketMesh struct {
	run string // the run's mesh name, known only to its workers
	uid int    // the user every peer must run as: the worker's own
}

// newMeshName draws a run's mesh name.
func newMeshName() (string, error) {
	if runtime.GOOS != "linux" {
		return "", fmt.Errorf("dist: the worker mesh binds abstract Unix sockets, which need Linux")
	}
	var b [12]byte
	if _, err := rand.Read(b[:]); err != nil {
		return "", fmt.Errorf("dist: mesh name: %w", err)
	}
	return hex.EncodeToString(b[:]), nil
}

func (m socketMesh) addr(index, gen int) string {
	h := sha256.Sum256(fmt.Appendf(nil, "%s-w%d-g%d", m.run, index, gen))
	return "@ttamc-" + hex.EncodeToString(h[:16])
}

// listen binds the accept endpoint of worker index in generation gen.
func (m socketMesh) listen(index, gen int) (net.Listener, error) {
	ln, err := net.Listen("unix", m.addr(index, gen))
	if err != nil {
		return nil, fmt.Errorf("dist: mesh listen w%d: %w", index, err)
	}
	return ln, nil
}

// dial connects worker `from` to worker `to`, both of generation gen,
// retrying until `to` listens or retired is closed.
func (m socketMesh) dial(from, to, gen int, retired <-chan struct{}) (net.Conn, error) {
	addr := m.addr(to, gen)
	var conn net.Conn
	var err error
	for i := 0; i < meshDialAttempts; i++ {
		if conn, err = net.Dial("unix", addr); err == nil {
			break
		}
		select {
		case <-retired:
			return nil, fmt.Errorf("dist: mesh dial w%d→w%d/g%d: generation retired", from, to, gen)
		case <-time.After(meshDialInterval):
		}
	}
	if err == nil {
		if err = checkPeerUID(conn, m.uid); err != nil {
			conn.Close()
		}
	}
	if err != nil {
		return nil, fmt.Errorf("dist: mesh dial w%d→w%d: %w", from, to, err)
	}
	var hs [8]byte
	binary.LittleEndian.PutUint32(hs[:4], uint32(from))
	binary.LittleEndian.PutUint32(hs[4:], uint32(gen))
	if _, err := conn.Write(hs[:]); err != nil {
		conn.Close()
		return nil, fmt.Errorf("dist: mesh handshake w%d→w%d: %w", from, to, err)
	}
	return conn, nil
}

// accept accepts the next inbound peer connection of the mesh's user,
// yielding it with the dialer's index and generation from the handshake.
func (m socketMesh) accept(ln net.Listener) (net.Conn, int, int, error) {
	for {
		conn, err := ln.Accept()
		if err != nil {
			return nil, 0, 0, err
		}
		if checkPeerUID(conn, m.uid) != nil {
			conn.Close()
			continue
		}
		conn.SetReadDeadline(time.Now().Add(meshHandshakeTimeout))
		var hs [8]byte
		if _, err := io.ReadFull(conn, hs[:]); err != nil {
			// A dialer that died mid-handshake; drop it and keep serving.
			conn.Close()
			continue
		}
		conn.SetReadDeadline(time.Time{})
		return conn, int(binary.LittleEndian.Uint32(hs[:4])), int(binary.LittleEndian.Uint32(hs[4:])), nil
	}
}
