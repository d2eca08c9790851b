// Command figures regenerates every table and figure of the paper's
// evaluation on the simulated Table II system and prints them as ASCII
// tables.
//
// Usage:
//
//	figures [-n instructions] [-par N] [-fig all|1|t1|3|5|t2|t3|12|13|14|15]
//	figures -obs-dir obs/ [-sample-interval N]
//
// With -fig all (the default) the full evaluation matrix (30 workloads ×
// 7 schemes) is simulated once and every figure is derived from it.
// With -obs-dir every matrix cell additionally writes a structured run
// record (JSON manifest) and a time-series CSV into the directory;
// -debug-addr serves pprof/expvar diagnostics while the matrix fills.
package main

import (
	"flag"
	"fmt"
	"os"

	"cbws/internal/cli"
	"cbws/internal/debugsrv"
	"cbws/internal/harness"
	"cbws/internal/report"
	"cbws/internal/workload"
)

// validFigs is the accepted -fig vocabulary; anything else is a usage
// error (exit 2), not a silent no-op run.
var validFigs = map[string]bool{
	"all": true, "1": true, "t1": true, "3": true, "4": true, "5": true,
	"t2": true, "t3": true, "12": true, "13": true, "14": true, "15": true,
	"learned": true,
}

// usageErr reports a command-line usage error and exits 2 via the
// shared convention, matching flag's own behaviour on unknown flags.
func usageErr(format string, args ...any) {
	flag.Usage()
	cli.Usagef("figures", format, args...)
}

func main() {
	n := flag.Uint64("n", 4_000_000, "instructions per simulation run")
	warm := flag.Uint64("warmup", 1_000_000, "warmup instructions excluded from metrics")
	par := flag.Int("par", 0, "parallel simulations (<= 0: one per CPU)")
	fig := flag.String("fig", "all", "figure to regenerate (all, 1, t1, 3, 5, t2, t3, 12, 13, 14, 15, learned)")
	csv := flag.Bool("csv", false, "emit CSV instead of aligned tables")
	golden := flag.String("golden", "", "write a golden determinism manifest for the full matrix to this path and render nothing")
	obsDir := flag.String("obs-dir", "", "write per-cell run records (JSON) and time series (CSV) into this directory")
	interval := flag.Uint64("sample-interval", 0, "probe sampling period in instructions (0: default; used with -obs-dir)")
	corpusDir := flag.String("corpus-dir", "", "replay workloads from packed .cbwc corpora in this directory (others use live generators)")
	debugAddr := flag.String("debug-addr", "", "serve pprof/expvar diagnostics on this address (e.g. :6060)")
	flag.Parse()

	if flag.NArg() > 0 {
		usageErr("unexpected argument %q", flag.Arg(0))
	}
	if !validFigs[*fig] {
		usageErr("unknown -fig %q", *fig)
	}
	if *warm >= *n {
		usageErr("-warmup %d must be smaller than -n %d", *warm, *n)
	}

	if *debugAddr != "" {
		addr, err := debugsrv.Serve(*debugAddr)
		if err != nil {
			cli.Errorf("figures", "%v", err)
		}
		fmt.Fprintf(os.Stderr, "figures: diagnostics on http://%s/debug/pprof/ and /debug/vars\n", addr)
	}

	opts := harness.DefaultOptions()
	opts.Sim.MaxInstructions = *n
	opts.Sim.WarmupInstructions = *warm
	opts.Parallel = *par
	opts.ObsDir = *obsDir
	opts.SampleInterval = *interval
	if *corpusDir != "" {
		src, err := harness.OpenCorpusDir(*corpusDir)
		if err != nil {
			cli.Errorf("figures", "%v", err)
		}
		defer src.Close()
		for _, name := range src.Names() {
			if err := src.CheckCovers(name, *n); err != nil {
				cli.Errorf("figures", "%v", err)
			}
		}
		fmt.Fprintf(os.Stderr, "figures: replaying %d workload(s) from %s\n", len(src.Names()), *corpusDir)
		opts.Corpus = src
	}
	m := harness.NewMatrix(opts)

	if *golden != "" {
		if err := writeGolden(m, *golden); err != nil {
			cli.Errorf("figures", "%v", err)
		}
		return
	}

	if err := run(m, opts, *fig, *n, *csv); err != nil {
		cli.Errorf("figures", "%v", err)
	}
}

// writeGolden simulates the full evaluation matrix (every registered
// workload × every golden-roster scheme — the evaluated schemes plus
// the learned baselines) and writes its determinism manifest to path.
func writeGolden(m *harness.Matrix, path string) error {
	g, err := harness.BuildGolden(m, workload.All(), harness.GoldenPrefetchers())
	if err != nil {
		return err
	}
	if err := harness.WriteGolden(path, g); err != nil {
		return err
	}
	fmt.Fprintf(os.Stderr, "figures: golden manifest for %d cells written to %s (matrix %0.12s…)\n",
		len(g.Cells), path, g.MatrixHash)
	return nil
}

func run(m *harness.Matrix, opts harness.Options, fig string, n uint64, csv bool) error {
	out := os.Stdout
	want := func(name string) bool { return fig == "all" || fig == name }
	render := func(t *report.Table) {
		if csv {
			t.RenderCSV(out)
		} else {
			t.Render(out)
		}
	}

	if want("t2") {
		render(harness.TableII(opts))
	}
	if want("t3") {
		render(harness.TableIII())
	}
	if want("t1") {
		render(harness.TableI())
	}
	if want("1") {
		t, err := harness.Figure1(m)
		if err != nil {
			return err
		}
		render(t)
	}
	if want("3") || want("4") {
		f3, f4 := harness.Figure3And4(8)
		render(f3)
		render(f4)
	}
	if want("5") {
		t, err := harness.Figure5(n)
		if err != nil {
			return err
		}
		render(t)
	}
	if want("12") {
		t, err := harness.Figure12(m)
		if err != nil {
			return err
		}
		render(t)
	}
	if want("13") {
		t, err := harness.Figure13(m)
		if err != nil {
			return err
		}
		render(t)
	}
	if want("14") {
		mi, reg, err := harness.Figure14(m)
		if err != nil {
			return err
		}
		render(mi)
		render(reg)
	}
	if fig == "learned" { // learned baselines are opt-in, not part of "all"
		t, err := harness.LearnedTable(m)
		if err != nil {
			return err
		}
		render(t)
	}
	if want("15") {
		t, err := harness.Figure15(m)
		if err != nil {
			return err
		}
		render(t)
	}
	return nil
}
