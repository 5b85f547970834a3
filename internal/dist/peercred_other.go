//go:build !linux

package dist

import (
	"errors"
	"net"
)

// checkPeerUID needs Linux's SO_PEERCRED, as the mesh needs its
// abstract sockets (see newMeshName).
func checkPeerUID(net.Conn, int) error {
	return errors.New("dist: mesh peer credentials need Linux")
}
