//go:build unix

package main

import (
	"runtime"
	"syscall"
)

// peakRSS is the process's peak resident set size in bytes, from
// getrusage, and whether the platform reports it.
func peakRSS() (int64, bool) {
	var ru syscall.Rusage
	if syscall.Getrusage(syscall.RUSAGE_SELF, &ru) != nil {
		return 0, false
	}
	if runtime.GOOS == "darwin" || runtime.GOOS == "ios" {
		return int64(ru.Maxrss), true // bytes there
	}
	return int64(ru.Maxrss) * 1024, true // KiB elsewhere
}
