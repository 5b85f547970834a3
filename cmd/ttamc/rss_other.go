//go:build !unix

package main

// peakRSS reports no peak resident set size where getrusage is missing.
func peakRSS() (int64, bool) { return 0, false }
