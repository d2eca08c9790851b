// Tracefile demonstrates the binary trace format: capture an annotated
// workload trace to disk, summarize it, and replay it through the
// simulator — the decoupled trace-driven methodology of trace-based
// prefetcher studies.
package main

import (
	"fmt"
	"log"
	"os"
	"path/filepath"

	"cbws"
	"cbws/internal/trace"
)

func main() {
	wl, ok := cbws.WorkloadByName("radix-simlarge")
	if !ok {
		log.Fatal("radix workload missing")
	}

	path := filepath.Join(os.TempDir(), "radix.cbwt")
	defer os.Remove(path)

	// 1. Capture 300K instructions into a trace file.
	f, err := os.Create(path)
	if err != nil {
		log.Fatal(err)
	}
	w, err := trace.NewWriter(f, wl.Name)
	if err != nil {
		log.Fatal(err)
	}
	trace.DriveBatches(trace.Limit{Gen: wl.Make(), Max: 300_000}, w)
	if err := w.Close(); err != nil {
		log.Fatal(err)
	}
	if err := f.Close(); err != nil {
		log.Fatal(err)
	}
	st, _ := os.Stat(path)
	fmt.Printf("captured %s (%d bytes on disk)\n\n", path, st.Size())

	// 2. Summarize the trace.
	rf, err := os.Open(path)
	if err != nil {
		log.Fatal(err)
	}
	r, err := trace.NewReader(rf)
	if err != nil {
		log.Fatal(err)
	}
	trace.Analyze(r, 0).Render(os.Stdout)
	rf.Close()

	// 3. Replay the trace file through the simulated system.
	rf, err = os.Open(path)
	if err != nil {
		log.Fatal(err)
	}
	defer rf.Close()
	r, err = trace.NewReader(rf)
	if err != nil {
		log.Fatal(err)
	}
	cfg := cbws.DefaultConfig()
	pf, err := cbws.NewPrefetcher("cbws+sms")
	if err != nil {
		log.Fatal(err)
	}
	res, err := cbws.Run(cfg, r, pf)
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("\nreplay under cbws+sms: IPC=%.3f MPKI=%.2f timely=%.1f%%\n",
		res.Metrics.IPC(), res.Metrics.MPKI(), 100*res.Metrics.TimelyFrac())
}
