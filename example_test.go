package cbws_test

import (
	"context"
	"fmt"

	"cbws"
)

// ExampleWorkloads enumerates the benchmark roster.
func ExampleWorkloads() {
	fmt.Println(len(cbws.Workloads()), "workloads,",
		len(cbws.MemoryIntensiveWorkloads()), "memory-intensive")
	// Output: 30 workloads, 15 memory-intensive
}

// ExampleNewCBWS shows the paper's hardware budget: the CBWS prefetcher
// fits in under 1KB of storage (Figure 8).
func ExampleNewCBWS() {
	p := cbws.NewCBWS(cbws.CBWSConfig{})
	fmt.Printf("%s: %d bits (%d bytes)\n", p.Name(), p.StorageBits(), p.StorageBits()/8)
	// Output: cbws: 8080 bits (1010 bytes)
}

// ExampleRun simulates a workload under the paper's best configuration.
// Metrics depend on the timing model, so this example prints only
// structural facts.
func ExampleRun() {
	cfg := cbws.DefaultConfig()
	cfg.MaxInstructions = 100_000

	wl, _ := cbws.WorkloadByName("nw")
	pf, err := cbws.NewPrefetcher("cbws+sms")
	if err != nil {
		fmt.Println("error:", err)
		return
	}
	res, err := cbws.Run(cfg, wl.Make(), pf)
	if err != nil {
		fmt.Println("error:", err)
		return
	}
	fmt.Println(res.Workload, "under", res.Prefetcher,
		"simulated", res.Metrics.Instructions, "instructions")
	// Output: nw under cbws+sms simulated 100000 instructions
}

// ExampleRunContext shows the options API: constructing a prefetcher by
// registry name and sampling a time series while the run executes.
func ExampleRunContext() {
	cfg := cbws.DefaultConfig()
	cfg.MaxInstructions = 100_000

	wl, _ := cbws.WorkloadByName("nw")
	pf, err := cbws.NewPrefetcher("cbws+sms")
	if err != nil {
		fmt.Println("error:", err)
		return
	}
	series := cbws.NewTimeSeries(8)
	res, err := cbws.RunContext(context.Background(), cfg, wl.Make(), pf,
		cbws.WithProbe(series), cbws.WithSampleInterval(25_000))
	if err != nil {
		fmt.Println("error:", err)
		return
	}
	final, _ := series.Final()
	fmt.Println(res.Workload, "sampled", series.Len(), "points;",
		"final snapshot matches result:", final == res.Metrics)
	// Output: nw sampled 5 points; final snapshot matches result: true
}

// ExampleNewPrefetcher enumerates the scheme registry.
func ExampleNewPrefetcher() {
	for _, name := range cbws.Prefetchers() {
		p, _ := cbws.NewPrefetcher(name)
		fmt.Println(p.Name())
	}
	// Output:
	// none
	// stride
	// ghb-pc/dc
	// ghb-g/dc
	// sms
	// cbws
	// cbws+sms
	// ampm
	// markov
	// pythia
	// gaze
}
