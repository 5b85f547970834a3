package dist

import (
	"errors"
	"net"
	"os"
	"testing"
	"time"
)

// TestMeshRefusesForeignUser: each end of a mesh connection refuses a
// peer that runs as another user. A mesh that expects another uid
// stands in for that user's process: a listener expecting it drops our
// dialer before reading its handshake, and a dialer expecting it
// refuses our listener, as it would one squatting the address.
func TestMeshRefusesForeignUser(t *testing.T) {
	run, err := newMeshName()
	if err != nil {
		t.Fatal(err)
	}
	own := socketMesh{run: run, uid: os.Getuid()}
	foreign := socketMesh{run: run, uid: os.Getuid() + 1}

	serve := func(m socketMesh, ln net.Listener) <-chan error {
		done := make(chan error, 1)
		go func() {
			conn, from, gen, err := m.accept(ln)
			if err == nil {
				conn.Close()
				err = errors.New("accepted")
				if from != 1 || gen != 1 {
					err = errors.New("accepted with a wrong handshake")
				}
			}
			done <- err
		}()
		return done
	}

	// A listener expecting another user drops the connection at once,
	// before waiting out the handshake timeout for identity bytes.
	ln, err := foreign.listen(0, 1)
	if err != nil {
		t.Fatal(err)
	}
	accepted := serve(foreign, ln)
	conn, err := net.Dial("unix", foreign.addr(0, 1))
	if err != nil {
		t.Fatalf("dial: %v", err)
	}
	conn.SetReadDeadline(time.Now().Add(meshHandshakeTimeout / 2))
	_, err = conn.Read(make([]byte, 1))
	var ne net.Error
	if err == nil || errors.As(err, &ne) && ne.Timeout() {
		t.Fatalf("read on a refused connection: %v, want it closed", err)
	}
	conn.Close()
	ln.Close()
	if err := <-accepted; !errors.Is(err, net.ErrClosed) {
		t.Fatalf("accept of a foreign dialer: %v, want none until the listener closed", err)
	}

	// A dialer expecting another user refuses the listener, and the same
	// user passes both checks.
	ln, err = own.listen(0, 1)
	if err != nil {
		t.Fatal(err)
	}
	defer ln.Close()
	if _, err := foreign.dial(1, 0, 1, nil); err == nil {
		t.Fatal("dial accepted a listener of another user")
	}
	accepted = serve(own, ln)
	if conn, err = own.dial(1, 0, 1, nil); err != nil {
		t.Fatalf("dial: %v", err)
	}
	defer conn.Close()
	if err := <-accepted; err == nil || err.Error() != "accepted" {
		t.Fatalf("accept of our own dialer: %v", err)
	}
}
