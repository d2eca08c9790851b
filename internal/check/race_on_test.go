//go:build race

package check_test

// raceEnabled reports a -race build, which runs the single-goroutine
// whole-workload differentials at a reduced scale.
const raceEnabled = true
