// Command cbwsim simulates one workload under one or more prefetching
// schemes on the Table II system and prints the collected metrics as one
// table, a column per scheme.
//
// Usage:
//
//	cbwsim -workload stencil-default -prefetcher cbws+sms [-n instructions]
//	cbwsim -workload 433.milc-su3imp -prefetcher sms,cbws+sms
//	cbwsim -workload stencil-default -obs run.json [-sample-interval N]
//	cbwsim -validate-record run.json
//	cbwsim -list
//
// With -obs a time-series probe samples the run every -sample-interval
// committed instructions and a structured run record (JSON manifest
// including the delta-encoded sample series) is written to the given
// path; -validate-record checks such a file against the schema. With two
// or more schemes every scheme runs on the same workload and the table
// adds each later scheme's change against the first, followed by its
// speedup — the quickest way to see *why* one scheme wins (coverage,
// timeliness, accuracy, traffic). -obs takes a single scheme.
// -debug-addr serves pprof and expvar diagnostics while the simulation
// runs. The run is cancellable: an interrupt aborts at the next trace
// batch boundary.
package main

import (
	"context"
	"flag"
	"fmt"
	"io"
	"os"
	"os/signal"
	"strings"
	"time"

	"cbws/internal/cli"
	"cbws/internal/debugsrv"
	"cbws/internal/harness"
	"cbws/internal/registry"
	"cbws/internal/report"
	"cbws/internal/sim"
	"cbws/internal/stats"
	"cbws/internal/workload"
)

func main() {
	wl := flag.String("workload", "stencil-default", "workload name (see -list)")
	pf := flag.String("prefetcher", "cbws+sms", "comma-separated prefetcher names, compared against the first: "+strings.Join(registry.Names(), ", "))
	n := flag.Uint64("n", 4_000_000, "instructions to simulate")
	warm := flag.Uint64("warmup", 1_000_000, "warmup instructions excluded from metrics")
	list := flag.Bool("list", false, "list workloads and exit")
	configPath := flag.String("config", "", "JSON system-config file (overrides Table II defaults)")
	dumpConfig := flag.Bool("dump-config", false, "print the effective configuration as JSON and exit")
	obs := flag.String("obs", "", "write a run record (JSON manifest + sample series) to this path")
	interval := flag.Uint64("sample-interval", 0, "probe sampling period in instructions (0: default)")
	validate := flag.String("validate-record", "", "validate a run-record JSON file against the schema and exit")
	debugAddr := flag.String("debug-addr", "", "serve pprof/expvar diagnostics on this address (e.g. :6060)")
	flag.Parse()

	if flag.NArg() > 0 {
		flag.Usage()
		cli.Usagef("cbwsim", "unexpected argument %q", flag.Arg(0))
	}
	if *warm >= *n {
		flag.Usage()
		cli.Usagef("cbwsim", "-warmup %d must be smaller than -n %d", *warm, *n)
	}
	names := strings.Split(*pf, ",")
	if *obs != "" && len(names) > 1 {
		flag.Usage()
		cli.Usagef("cbwsim", "-obs records one run; -prefetcher names %d schemes", len(names))
	}

	if *validate != "" {
		rec, err := harness.ReadRunRecord(*validate)
		if err != nil {
			cli.Errorf("cbwsim", "%v", err)
		}
		fmt.Printf("%s: valid run record (schema %d, %s/%s, %d samples)\n",
			*validate, rec.Schema, rec.Workload, rec.Prefetcher, len(rec.Samples))
		return
	}

	if *debugAddr != "" {
		addr, err := debugsrv.Serve(*debugAddr)
		if err != nil {
			cli.Errorf("cbwsim", "%v", err)
		}
		fmt.Fprintf(os.Stderr, "cbwsim: diagnostics on http://%s/debug/pprof/ and /debug/vars\n", addr)
	}

	if *list {
		fmt.Println("memory-intensive workloads:")
		for _, s := range workload.MemoryIntensive() {
			fmt.Printf("  %-26s (%s)\n", s.Name, s.Suite)
		}
		fmt.Println("regular workloads:")
		for _, s := range workload.Regular() {
			fmt.Printf("  %-26s (%s)\n", s.Name, s.Suite)
		}
		return
	}

	spec, ok := workload.ByName(*wl)
	if !ok {
		cli.Errorf("cbwsim", "unknown workload %q (try -list)", *wl)
	}
	factories := make([]registry.Factory, len(names))
	for i, name := range names {
		f, err := registry.Resolve(name)
		if err != nil {
			cli.Errorf("cbwsim", "%v", err)
		}
		factories[i] = f
	}

	cfg := sim.DefaultConfig()
	if *configPath != "" {
		var err error
		cfg, err = sim.LoadConfig(*configPath)
		if err != nil {
			cli.Errorf("cbwsim", "%v", err)
		}
	}
	cfg.MaxInstructions = *n
	cfg.WarmupInstructions = *warm
	if *dumpConfig {
		if err := sim.WriteConfig(os.Stdout, cfg); err != nil {
			cli.Errorf("cbwsim", "%v", err)
		}
		return
	}

	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt)
	defer stop()

	var opts []sim.Option
	var ts *sim.TimeSeries
	sampleEvery := *interval
	if *obs != "" {
		if sampleEvery == 0 {
			sampleEvery = sim.DefaultSampleInterval
		}
		ts = sim.NewTimeSeries(int(*n/sampleEvery) + 2)
		opts = append(opts, sim.WithProbe(ts), sim.WithSampleInterval(sampleEvery))
	}

	metrics := make([]stats.Metrics, len(factories))
	for i, f := range factories {
		start := time.Now()
		res, err := sim.RunContext(ctx, cfg, spec.Make(), f.New(), opts...)
		if err != nil {
			cli.Errorf("cbwsim", "%v", err)
		}
		if ts != nil {
			rec := harness.NewRunRecord(cfg, res, sampleEvery, ts.Points(), time.Since(start))
			if err := rec.WriteJSON(*obs); err != nil {
				cli.Errorf("cbwsim", "%v", err)
			}
			fmt.Fprintf(os.Stderr, "cbwsim: wrote run record %s (%d samples)\n", *obs, len(rec.Samples))
		}
		metrics[i] = res.Metrics
	}
	render(os.Stdout, spec.Name, names, metrics)
}

// row is one metric line of the table. better is +1 when a higher value
// is better, -1 when a lower one is, and 0 when neither; it only marks
// the delta column.
type row struct {
	name   string
	prec   int
	better int
	value  func(stats.Metrics) float64
}

var rows = []row{
	{"instructions", 0, 0, func(m stats.Metrics) float64 { return float64(m.Instructions) }},
	{"cycles", 0, -1, func(m stats.Metrics) float64 { return float64(m.Cycles) }},
	{"IPC", 3, 1, stats.Metrics.IPC},
	{"loads", 0, 0, func(m stats.Metrics) float64 { return float64(m.Loads) }},
	{"stores", 0, 0, func(m stats.Metrics) float64 { return float64(m.Stores) }},
	{"blocks", 0, 0, func(m stats.Metrics) float64 { return float64(m.Blocks) }},
	{"branches", 0, 0, func(m stats.Metrics) float64 { return float64(m.Branches) }},
	{"mispredict %", 2, -1, func(m stats.Metrics) float64 { return 100 * m.MispredictRate() }},
	{"loop %", 1, 0, func(m stats.Metrics) float64 { return 100 * m.LoopFrac }},
	{"L2 demand", 0, 0, func(m stats.Metrics) float64 { return float64(m.DemandL2) }},
	{"L2 misses", 0, -1, func(m stats.Metrics) float64 { return float64(m.DemandL2Misses) }},
	{"MPKI", 2, -1, stats.Metrics.MPKI},
	{"timely %", 1, 1, func(m stats.Metrics) float64 { return 100 * m.TimelyFrac() }},
	{"shorter-wait %", 1, 1, func(m stats.Metrics) float64 { return 100 * m.ShorterWTFrac() }},
	{"non-timely %", 1, 0, func(m stats.Metrics) float64 { return 100 * m.NonTimelyFrac() }},
	{"missing %", 1, -1, func(m stats.Metrics) float64 { return 100 * m.MissingFrac() }},
	{"wrong %", 1, -1, func(m stats.Metrics) float64 { return 100 * m.WrongFrac() }},
	{"prefetches issued", 0, 1, func(m stats.Metrics) float64 { return float64(m.PrefetchIssued) }},
	{"prefetches useful", 0, 1, func(m stats.Metrics) float64 { return float64(m.PrefetchUseful) }},
	{"prefetches late", 0, -1, func(m stats.Metrics) float64 { return float64(m.PrefetchLate) }},
	{"prefetches redundant", 0, -1, func(m stats.Metrics) float64 { return float64(m.PrefetchRedundant) }},
	{"prefetches dropped", 0, -1, func(m stats.Metrics) float64 { return float64(m.PrefetchDropped) }},
	{"accuracy %", 1, 1, func(m stats.Metrics) float64 { return 100 * m.Accuracy() }},
	{"read MB", 2, -1, func(m stats.Metrics) float64 { return float64(m.BytesFromMem) / (1 << 20) }},
	{"demand read MB", 2, 0, func(m stats.Metrics) float64 { return float64(m.DemandBytes) / (1 << 20) }},
	{"writeback MB", 2, -1, func(m stats.Metrics) float64 { return float64(m.WritebackBytes) / (1 << 20) }},
	{"IPC per read GB", 3, 1, func(m stats.Metrics) float64 { return m.PerfPerByte() * (1 << 30) }},
}

// render prints one column per scheme; with two or more schemes each
// later one gets a delta column and a speedup line against the first.
func render(w io.Writer, workloadName string, names []string, ms []stats.Metrics) {
	cols := append([]string{"metric"}, names...)
	for _, name := range names[1:] {
		cols = append(cols, "delta "+name)
	}
	t := &report.Table{Title: workloadName + ": " + strings.Join(names, " vs "), Columns: cols}
	for _, r := range rows {
		cells := []string{r.name}
		for _, m := range ms {
			cells = append(cells, report.F(r.value(m), r.prec))
		}
		for _, m := range ms[1:] {
			cells = append(cells, delta(r.value(ms[0]), r.value(m), r.better))
		}
		t.AddRow(cells...)
	}
	t.Render(w)
	for i, m := range ms[1:] {
		if base := ms[0].IPC(); base > 0 {
			fmt.Fprintf(w, "speedup (%s over %s): %s\n", names[i+1], names[0], report.Speedup(m.IPC()/base))
		}
	}
}

// delta formats vb's change against va in percent, marked better or
// worse when it moves by more than 1% in a direction that matters.
func delta(va, vb float64, better int) string {
	if va == 0 {
		return "-"
	}
	change := (vb - va) / va * 100
	sign := ""
	if change > 0 {
		sign = "+"
	}
	marker := ""
	switch {
	case better != 0 && change*float64(better) > 1:
		marker = " (better)"
	case better != 0 && change*float64(better) < -1:
		marker = " (worse)"
	}
	return fmt.Sprintf("%s%.1f%%%s", sign, change, marker)
}
