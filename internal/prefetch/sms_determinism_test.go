package prefetch_test

import (
	"testing"

	"cbws/internal/prefetch"
	"cbws/internal/sim"
	"cbws/internal/workload"
)

// TestSMSSmallPHTDeterministic runs an SMS with an 8-entry PHT, which
// evicts constantly, ten times over each of a few workloads in one
// process and requires identical results. Several generations can end
// within one access (an L1 eviction storm), so LRU stamps taken per
// access would tie and leave the PHT victim to Go's randomized map
// iteration order; SMS stamps every update from one counter instead.
func TestSMSSmallPHTDeterministic(t *testing.T) {
	cfg := sim.DefaultConfig()
	cfg.MaxInstructions = 400_000
	cfg.WarmupInstructions = 100_000
	for _, name := range []string{"433.milc-su3imp", "450.soplex-ref", "canneal-simlarge"} {
		spec, ok := workload.ByName(name)
		if !ok {
			t.Fatalf("unknown workload %s", name)
		}
		var first sim.Result
		for run := 0; run < 10; run++ {
			got, err := sim.Run(cfg, spec.Make(), prefetch.NewSMS(prefetch.SMSConfig{PHTEntries: 8}))
			if err != nil {
				t.Fatal(err)
			}
			if run == 0 {
				first = got
			} else if got != first {
				t.Fatalf("%s: run %d differs from run 0:\n got %+v\nwant %+v", name, run, got, first)
			}
		}
	}
}
