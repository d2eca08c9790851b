// Command tracegen captures a workload's annotated instruction trace
// into the binary stream format (CBWT), packs traces into the columnar
// corpus format (CBWC), and inspects packed corpora.
//
// Usage:
//
//	tracegen -workload histo-large -n 1000000 -o histo.cbwt
//	tracegen -workload histo-large -stats
//	tracegen pack -workload histo-large -n 1000000 -o histo.cbwc
//	tracegen pack -i histo.cbwt -o histo.cbwc [-block-events N]
//	tracegen info histo.cbwc
//
// The first form (no subcommand) is the original stream capture. "pack"
// writes a CBWC corpus either straight from a workload generator or by
// converting an existing CBWT stream file; it prints the corpus content
// address (hex SHA-256), which is what cbwsd job keys absorb. "info"
// prints a corpus's header, column footprint, and content address.
package main

import (
	"flag"
	"fmt"
	"os"

	"cbws/internal/cli"
	"cbws/internal/debugsrv"
	"cbws/internal/trace"
	"cbws/internal/trace/corpus"
	"cbws/internal/workload"
)

func main() {
	if len(os.Args) > 1 {
		switch os.Args[1] {
		case "pack":
			runPack(os.Args[2:])
			return
		case "info":
			runInfo(os.Args[2:])
			return
		}
	}
	runCapture(os.Args[1:])
}

// runCapture is the legacy flag mode: capture a workload into a CBWT
// stream file (or print its summary).
func runCapture(args []string) {
	fs := flag.NewFlagSet("tracegen", flag.ExitOnError)
	wl := fs.String("workload", "stencil-default", "workload name")
	n := fs.Uint64("n", 1_000_000, "instructions to capture")
	out := fs.String("o", "", "output file (default <workload>.cbwt)")
	statsOnly := fs.Bool("stats", false, "print a trace summary instead of writing a file")
	debugAddr := fs.String("debug-addr", "", "serve pprof/expvar diagnostics on this address (e.g. :6060)")
	fs.Parse(args)

	if fs.NArg() > 0 {
		fs.Usage()
		cli.Usagef("tracegen", "unexpected argument %q", fs.Arg(0))
	}
	if *n == 0 {
		fs.Usage()
		cli.Usagef("tracegen", "-n must be positive")
	}

	if *debugAddr != "" {
		addr, err := debugsrv.Serve(*debugAddr)
		if err != nil {
			cli.Errorf("tracegen", "%v", err)
		}
		fmt.Fprintf(os.Stderr, "tracegen: diagnostics on http://%s/debug/pprof/ and /debug/vars\n", addr)
	}

	spec, ok := workload.ByName(*wl)
	if !ok {
		cli.Errorf("tracegen", "unknown workload %q", *wl)
	}
	if *statsOnly {
		trace.Analyze(spec.Make(), *n).Render(os.Stdout)
		return
	}
	path := *out
	if path == "" {
		path = spec.Name + ".cbwt"
	}
	f, err := os.Create(path)
	if err != nil {
		cli.Errorf("tracegen", "%v", err)
	}
	w, err := trace.NewWriter(f, spec.Name)
	if err != nil {
		cli.Errorf("tracegen", "%v", err)
	}
	trace.DriveBatches(trace.Limit{Gen: spec.Make(), Max: *n}, w)
	if err := w.Close(); err != nil {
		cli.Errorf("tracegen", "%v", err)
	}
	if err := f.Close(); err != nil {
		cli.Errorf("tracegen", "%v", err)
	}
	st, _ := os.Stat(path)
	fmt.Printf("wrote %s (%d bytes)\n", path, st.Size())
}

// runPack packs a CBWC corpus from a workload generator (-workload) or
// from an existing CBWT stream file (-i).
func runPack(args []string) {
	fs := flag.NewFlagSet("tracegen pack", flag.ExitOnError)
	wl := fs.String("workload", "", "workload name to capture and pack")
	in := fs.String("i", "", "CBWT stream file to convert instead of capturing a workload")
	n := fs.Uint64("n", 1_000_000, "instructions to capture (with -workload)")
	out := fs.String("o", "", "output file (default <name>.cbwc)")
	blockEvents := fs.Int("block-events", 0, "events per block (0: default granule)")
	fs.Parse(args)

	if fs.NArg() > 0 {
		fs.Usage()
		cli.Usagef("tracegen", "unexpected argument %q", fs.Arg(0))
	}
	if (*wl == "") == (*in == "") {
		fs.Usage()
		cli.Usagef("tracegen", "pack needs exactly one of -workload or -i")
	}
	opts := corpus.Options{BlockEvents: *blockEvents}

	var (
		gen  trace.Generator
		name string
		max  uint64
	)
	if *wl != "" {
		spec, ok := workload.ByName(*wl)
		if !ok {
			cli.Errorf("tracegen", "unknown workload %q", *wl)
		}
		if *n == 0 {
			cli.Usagef("tracegen", "-n must be positive")
		}
		gen, name, max = spec.Make(), spec.Name, *n
	} else {
		tr, err := readStream(*in)
		if err != nil {
			cli.Errorf("tracegen", "%v", err)
		}
		gen, name, max = tr, tr.Name(), 0 // 0: pack the whole stream
	}

	path := *out
	if path == "" {
		path = name + ".cbwc"
	}
	res, err := corpus.Pack(path, gen, max, opts)
	if err != nil {
		cli.Errorf("tracegen", "%v", err)
	}
	fmt.Printf("wrote %s (%d bytes, %d events, %d instructions)\n", path, res.Bytes, res.Events, res.Instructions)
	fmt.Printf("sha256 %s\n", res.Hash)
}

// readStream decodes a whole CBWT file into memory. Corpus packing
// needs the trace name before the first event, and the decoded trace
// doubles as the generator to pack.
func readStream(path string) (*trace.Trace, error) {
	f, err := os.Open(path)
	if err != nil {
		return nil, err
	}
	defer f.Close()
	r, err := trace.NewReader(f)
	if err != nil {
		return nil, err
	}
	tr := trace.New(r.Name())
	if err := r.DecodeBatches(tr); err != nil {
		return nil, err
	}
	return tr, nil
}

// runInfo prints a packed corpus's header fields, per-column footprint,
// and content address.
func runInfo(args []string) {
	fs := flag.NewFlagSet("tracegen info", flag.ExitOnError)
	fs.Parse(args)
	if fs.NArg() != 1 {
		fs.Usage()
		cli.Usagef("tracegen", "info needs exactly one corpus file")
	}
	path := fs.Arg(0)
	c, err := corpus.Open(path, corpus.OpenOptions{})
	if err != nil {
		cli.Errorf("tracegen", "%v", err)
	}
	defer c.Close()
	fmt.Printf("name         %s\n", c.Name())
	fmt.Printf("events       %d\n", c.Events())
	fmt.Printf("instructions %d\n", c.Instructions())
	fmt.Printf("blocks       %d (granule %d events)\n", c.Blocks(), c.BlockEvents())
	fmt.Printf("size         %d bytes (%.2f B/event)\n", c.Size(), float64(c.Size())/float64(max64(c.Events(), 1)))
	cols := c.ColumnBytes()
	for i, label := range [...]string{"kinds", "pc", "addr", "n", "block", "taken"} {
		fmt.Printf("col %-8s %d bytes\n", label, cols[i])
	}
	fmt.Printf("sha256       %s\n", c.Hash())
}

func max64(a, b uint64) uint64 {
	if a > b {
		return a
	}
	return b
}
