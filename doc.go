// Package ttastar is a from-scratch Go reproduction of "Fault Tolerance
// Tradeoffs in Moving from Decentralized to Centralized Embedded Systems"
// (Morris, Kroening, Koopman — DSN 2004): a TTP/C protocol engine and TTA
// cluster simulator, an explicit-state model checker running the paper's
// formal model of star-coupler faults, and the §6 buffer-size analysis.
//
// The implementation lives under internal/; the binaries under cmd/ and
// the runnable examples under examples/ are the public surface. The
// tests of internal/experiments and internal/analysis regenerate every
// experiment (E1–E11 in DESIGN.md) and pin its result; perfbench/ is the
// repository benchmark.
package ttastar
