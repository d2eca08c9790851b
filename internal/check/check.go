// Package check is the differential correctness harness: it holds
// deliberately simple reference models of the optimized hot paths — a
// map-based functional cache with the same LRU/MSHR semantics as
// internal/cache but none of its structure-of-arrays tricks, an
// unbounded-window reference for the engine's ROB occupancy and commit
// arithmetic, and a naive CBWS predictor built from plain slices — plus
// the Enabled flag that gates the runtime invariant checkers embedded
// in the production packages.
//
// The reference models trade every optimization for obviousness: they
// allocate freely, recompute instead of maintaining incremental state,
// and use maps and slices where the production code uses preallocated
// flat arrays. Differential tests (and the Fuzz*VsRef targets) drive a
// reference and its production counterpart with the same operation
// sequence and require bit-identical observable behaviour: hit/miss
// outcomes, fill times, issued prefetch streams, statistics counters.
//
// Invariant checking is off by default so production runs pay only a
// dead branch; tests flip check.Enabled, and the cbwscheck build tag
// turns it on for a whole binary (go build -tags cbwscheck ./...).
package check

import "fmt"

// Enabled gates the runtime invariant checkers compiled into the
// production packages (cache MSHR bounds, ROB FIFO order, CBWS vector
// dedup/bounds). It defaults to false — or true under the cbwscheck
// build tag — and may be toggled by tests. It is not synchronized: set
// it before starting concurrent simulations.
var Enabled = enabledDefault

// Failf reports an invariant violation. Violations are programming
// errors, never data-dependent conditions, so it panics.
func Failf(format string, args ...any) {
	panic(fmt.Sprintf("check: invariant violated: "+format, args...))
}

// Assertf panics via Failf when cond is false. Callers must gate the
// call (and any expensive argument construction) on Enabled.
func Assertf(cond bool, format string, args ...any) {
	if !cond {
		Failf(format, args...)
	}
}
