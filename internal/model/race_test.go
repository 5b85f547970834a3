//go:build race

package model

// raceEnabled reports whether the race detector is compiled in; its
// instrumentation slows the exhaustive sweeps by an order of magnitude,
// so they bound themselves under it.
const raceEnabled = true
