// Package retry is the repo's one bounded-backoff loop: checkpoint
// writers, campaign flushes and the distributed protocol all retry
// transient failures through it with one budget — four attempts, backing
// off 5, 10 and 20 ms, a worst-case stall of 35 ms that is negligible
// next to a level expansion or a campaign cell, yet rides out EINTR
// storms and momentary disk-pressure blips.
package retry

import (
	"errors"
	"syscall"
	"time"
)

const (
	attempts = 4
	backoff  = 5 * time.Millisecond
)

// Transient reports whether err is worth retrying: the interruptible /
// resource-pressure errno family (EINTR, EAGAIN, ENOSPC, EBUSY, and the
// file-table exhaustion pair). Permanent conditions — permission denied,
// missing directories, read-only filesystems — fail immediately so a
// misconfiguration is not masked behind a backoff sleep.
func Transient(err error) bool {
	for _, errno := range []syscall.Errno{
		syscall.EINTR, syscall.EAGAIN, syscall.ENOSPC,
		syscall.EBUSY, syscall.ENFILE, syscall.EMFILE,
	} {
		if errors.Is(err, errno) {
			return true
		}
	}
	return false
}

// Do runs f until it succeeds, fails with an error Transient refuses, or
// has spent the budget, and returns the last error as-is. The count is
// the number of retries performed (0 when the first attempt decided).
func Do(f func() error) (int, error) {
	var err error
	for a := 0; a < attempts; a++ {
		if err = f(); err == nil || !Transient(err) {
			return a, err
		}
		if a < attempts-1 {
			time.Sleep(backoff << a)
		}
	}
	return attempts - 1, err
}
