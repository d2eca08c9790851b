// Sweep runs the full prefetcher comparison over the memory-intensive
// benchmark group — a miniature of the paper's Figures 12 and 14 —
// using the public API plus the harness.
package main

import (
	"fmt"
	"log"
	"math"
	"os"

	"cbws/internal/harness"
	"cbws/internal/registry"
	"cbws/internal/workload"
)

func main() {
	opts := harness.DefaultOptions()
	opts.Sim.MaxInstructions = 1_500_000
	opts.Sim.WarmupInstructions = 500_000
	opts.Parallel = 8
	m := harness.NewMatrix(opts)

	specs := workload.MemoryIntensive()
	factories := harness.Prefetchers()
	if err := m.Fill(specs, factories); err != nil {
		log.Fatal(err)
	}

	fmt.Printf("%-24s", "benchmark")
	for _, f := range factories {
		fmt.Printf("  %10s", f.Name)
	}
	fmt.Println("  (IPC)")
	for _, spec := range specs {
		fmt.Printf("%-24s", spec.Name)
		for _, f := range factories {
			r, err := m.Get(spec, f)
			if err != nil {
				log.Fatal(err)
			}
			fmt.Printf("  %10.3f", r.Metrics.IPC())
		}
		fmt.Println()
	}

	// Headline: CBWS+SMS speedup over standalone SMS.
	sms, _ := registry.ByName("sms")
	hybrid, _ := registry.ByName("cbws+sms")
	var logSum, n float64
	for _, spec := range specs {
		a, err1 := m.Get(spec, sms)
		b, err2 := m.Get(spec, hybrid)
		if err1 != nil || err2 != nil {
			os.Exit(1)
		}
		if a.Metrics.IPC() > 0 {
			logSum += math.Log(b.Metrics.IPC() / a.Metrics.IPC())
			n++
		}
	}
	fmt.Printf("\nCBWS+SMS speedup over SMS (geomean, MI group): %.2fx\n", math.Exp(logSum/n))
}
