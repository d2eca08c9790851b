// Package checkguard is the fixture for the cbws/checkguard analyzer.
package checkguard

import "cbws/internal/check"

type table struct{ n int }

func (t *table) insert(v int) {
	check.Assertf(v >= 0, "negative insert %d", v) // want `not guarded by check.Enabled`
	t.n++
}

func (t *table) drop() {
	if t.n == 0 {
		check.Failf("drop on empty table") // want `not guarded by check.Enabled`
	}
	t.n--
}

// checkTable calls a hook directly from an unexported check*-named
// function, so it is a recognized invariant helper: its body is exempt
// but its call sites carry the guard obligation.
func checkTable(t *table) {
	check.Assertf(t.n >= 0, "size underflow: %d", t.n)
}

func (t *table) rebalance() {
	checkTable(t) // want `invariant helper checkTable is not guarded`
	t.n /= 2
}
