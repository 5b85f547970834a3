package dist

import (
	"fmt"
	"net"
	"syscall"
)

// checkPeerUID refuses a Unix socket connection whose other end runs as
// another user than uid. SO_PEERCRED names the dialer as of its
// connect, or the listener as of its listen.
func checkPeerUID(conn net.Conn, uid int) error {
	raw, err := conn.(*net.UnixConn).SyscallConn()
	if err != nil {
		return err
	}
	var cred *syscall.Ucred
	var credErr error
	if err := raw.Control(func(fd uintptr) {
		cred, credErr = syscall.GetsockoptUcred(int(fd), syscall.SOL_SOCKET, syscall.SO_PEERCRED)
	}); err != nil {
		return err
	}
	if credErr != nil {
		return fmt.Errorf("dist: mesh peer credentials: %w", credErr)
	}
	if int(cred.Uid) != uid {
		return fmt.Errorf("dist: mesh peer runs as uid %d, not %d", cred.Uid, uid)
	}
	return nil
}
