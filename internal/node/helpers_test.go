package node

// Functions only the tests call.

import (
	"fmt"
	"time"
)

// RequestModeChange asks the protocol to switch the cluster operating mode.
// The request rides in the 3-bit mode-change-request field of the node's
// next frame; every receiver records it as the deferred mode change (DMC),
// and all integrated nodes switch together at the next cluster-cycle
// boundary. Mode 0 means "no request"; modes are 1-7.
func (n *Node) RequestModeChange(mode uint8) error {
	if mode == 0 || mode > 7 {
		return fmt.Errorf("node %v: mode %d outside [1,7]", n.cfg.ID, mode)
	}
	n.pendingMCR = mode
	return nil
}

// EnterAwait parks the node in the await state for d, then returns to
// freeze. Await models waiting for host-level download decisions.
func (n *Node) EnterAwait(d time.Duration) { n.enterHostState(StateAwait, d) }

// EnterTest runs built-in self test for d, then returns to freeze.
func (n *Node) EnterTest(d time.Duration) { n.enterHostState(StateTest, d) }

// EnterDownload runs a configuration download for d, then returns to freeze.
func (n *Node) EnterDownload(d time.Duration) { n.enterHostState(StateDownload, d) }
