// Command benchgate compares `go test -bench` output against a
// checked-in baseline and fails on regressions: wall time may grow by
// at most the configured ratio (default 2x, absorbing CI machine
// noise), while allocations per operation must match exactly (they are
// deterministic, so any change is a real regression or a real
// improvement to re-baseline).
//
// Usage:
//
//	go test -bench 'Pipeline|CBWS' -run '^$' . | benchgate -baseline BENCH_baseline.json -bench 'Pipeline|CBWS'
//	go test -bench ... | benchgate -write BENCH_baseline.json -bench ...
//	benchgate -ab -bench 'OnAccess$' [-base REV] [-overlay bench_test.go]
//
// -write pins the benchmarks of its input in the file: their entries
// are replaced and every other entry is kept.
//
// The input (stdin or -input) is a timing pass and supplies only ns/op.
// Go counts allocations process-wide, so a garbage collection that
// lands inside a benchmark adds the runtime's own allocations to that
// benchmark's allocs/op: linking in one more package can move a pin.
// The exact allocs/op pin therefore reads only an alloc pass that
// benchgate runs itself: it builds the test binary of the package in
// the working directory and runs the -bench benchmarks once under
// GOGC=off at a fixed -test.benchtime (allocBenchtime). -ab runs the
// same pass on each side.
//
// The -ab mode is a paired A/B gate that slow host phases cannot fool.
// It checks out the -base revision (default: the merge-base of HEAD and
// main) in a temporary git worktree, builds the root package's test
// binary there and in the working tree, and alternates one -test.count
// 1 -test.benchtime 500ms run of each for 20 rounds, swapping which
// side goes first each round.
// Each round yields one working/base ns/op ratio per benchmark; the
// report gives each benchmark's median ratio with its order-statistic
// interval (the 6th and 15th smallest of the 20 ratios, covering
// 95.9%), and the exit status is 1 when any interval's lower bound
// exceeds 1.10. A clean working tree whose
// merge-base is HEAD is refused (exit 1): both sides would be the same
// code. Asking for that on purpose with -base HEAD is an A/A run: each
// interval is then the smallest effect that benchmark can show on this
// host, and a later A/B ratio inside it is not separated. -overlay
// copies files such as a new benchmark file into the baseline checkout
// so both sides run the same benchmark.
//
// Only benchmarks present in the baseline are gated; extra benchmarks
// in the input are ignored, but a gated benchmark missing from the
// input is an error (the gate must never pass vacuously). Repeated
// runs of one benchmark (go test -count) are folded with min(ns/op),
// the least-noisy estimate.
package main

import (
	"bufio"
	"bytes"
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"io"
	"os"
	"sort"
	"strconv"
	"strings"

	"cbws/internal/cli"
)

// BaselineEntry pins one benchmark.
type BaselineEntry struct {
	NsPerOp     float64 `json:"ns_per_op"`
	AllocsPerOp int64   `json:"allocs_per_op"`
}

// Baseline is the checked-in gate file.
type Baseline struct {
	// MaxTimeRatio bounds measured/baseline ns/op (0 means the
	// command-line default).
	MaxTimeRatio float64                  `json:"max_time_ratio,omitempty"`
	Benchmarks   map[string]BaselineEntry `json:"benchmarks"`
}

// Measurement is one parsed benchmark result line.
type Measurement struct {
	Name        string // -N GOMAXPROCS suffix stripped
	NsPerOp     float64
	AllocsPerOp int64
	HasAllocs   bool
}

// parseLine parses one `go test -bench` result line, returning ok=false
// for non-benchmark lines (headers, PASS, metrics-only output).
func parseLine(line string) (Measurement, bool) {
	f := strings.Fields(line)
	if len(f) < 4 || !strings.HasPrefix(f[0], "Benchmark") {
		return Measurement{}, false
	}
	m := Measurement{Name: f[0]}
	if i := strings.LastIndex(m.Name, "-"); i > 0 {
		if _, err := strconv.Atoi(m.Name[i+1:]); err == nil {
			m.Name = m.Name[:i] // strip the -GOMAXPROCS suffix
		}
	}
	found := false
	for i := 2; i < len(f); i++ {
		v, err := strconv.ParseFloat(f[i-1], 64)
		if err != nil {
			continue
		}
		switch f[i] {
		case "ns/op":
			m.NsPerOp = v
			found = true
		case "allocs/op":
			m.AllocsPerOp = int64(v)
			m.HasAllocs = true
		}
	}
	return m, found
}

// parseBench folds all benchmark lines of r into per-name measurements,
// taking min(ns/op) over repeated runs. With allocs set, allocs/op must
// agree exactly across repeats; without it allocs/op are dropped, as
// for a timing pass, whose allocation counts the gate does not read.
func parseBench(r io.Reader, allocs bool) (map[string]Measurement, error) {
	out := make(map[string]Measurement)
	sc := bufio.NewScanner(r)
	for sc.Scan() {
		m, ok := parseLine(sc.Text())
		if !ok {
			continue
		}
		if !allocs {
			m.AllocsPerOp, m.HasAllocs = 0, false
		}
		prev, seen := out[m.Name]
		if !seen {
			out[m.Name] = m
			continue
		}
		if m.HasAllocs && prev.HasAllocs && m.AllocsPerOp != prev.AllocsPerOp {
			return nil, fmt.Errorf("%s: allocs/op differ across runs (%d vs %d)",
				m.Name, prev.AllocsPerOp, m.AllocsPerOp)
		}
		if m.NsPerOp < prev.NsPerOp {
			prev.NsPerOp = m.NsPerOp
		}
		prev.HasAllocs = prev.HasAllocs || m.HasAllocs
		out[m.Name] = prev
	}
	return out, sc.Err()
}

// withAllocs replaces the allocs/op of every measurement in times with
// the alloc pass's reading of the same benchmark. A benchmark the alloc
// pass did not run is left without allocs/op.
func withAllocs(times, allocs map[string]Measurement) {
	for name, m := range times {
		a, ok := allocs[name]
		m.AllocsPerOp, m.HasAllocs = a.AllocsPerOp, ok && a.HasAllocs
		times[name] = m
	}
}

// gate checks measurements against the baseline and returns one line
// per violation.
func gate(base Baseline, got map[string]Measurement, defaultRatio float64) []string {
	ratio := base.MaxTimeRatio
	if ratio == 0 {
		ratio = defaultRatio
	}
	names := make([]string, 0, len(base.Benchmarks))
	for name := range base.Benchmarks {
		names = append(names, name)
	}
	sort.Strings(names)
	var bad []string
	for _, name := range names {
		want := base.Benchmarks[name]
		m, ok := got[name]
		if !ok {
			bad = append(bad, fmt.Sprintf("%s: gated benchmark missing from input", name))
			continue
		}
		if limit := want.NsPerOp * ratio; m.NsPerOp > limit {
			bad = append(bad, fmt.Sprintf("%s: %.0f ns/op exceeds %.1fx baseline %.0f ns/op (limit %.0f)",
				name, m.NsPerOp, ratio, want.NsPerOp, limit))
		}
		if !m.HasAllocs {
			bad = append(bad, fmt.Sprintf("%s: no allocs/op measured (the alloc pass did not run it)", name))
		} else if m.AllocsPerOp != want.AllocsPerOp {
			bad = append(bad, fmt.Sprintf("%s: %d allocs/op, baseline pins exactly %d",
				name, m.AllocsPerOp, want.AllocsPerOp))
		}
	}
	return bad
}

// writeBaseline pins the measured benchmarks in the baseline file at
// path: each one's entry is replaced, and every other entry and the
// file's max_time_ratio are kept, so pinning one benchmark re-pins no
// other. A file that does not exist yet is created with ratio as its
// max_time_ratio. It returns the sorted names of the kept entries that
// got did not measure: a renamed or deleted benchmark's pin is among
// them, and only an edit of the file removes it.
func writeBaseline(path string, got map[string]Measurement, ratio float64) ([]string, error) {
	base := Baseline{MaxTimeRatio: ratio}
	raw, err := os.ReadFile(path)
	switch {
	case err == nil:
		base = Baseline{}
		if err := json.Unmarshal(raw, &base); err != nil {
			return nil, fmt.Errorf("%s: %v", path, err)
		}
	case !errors.Is(err, os.ErrNotExist):
		return nil, err
	}
	if base.Benchmarks == nil {
		base.Benchmarks = make(map[string]BaselineEntry, len(got))
	}
	var kept []string
	for name := range base.Benchmarks {
		if _, ok := got[name]; !ok {
			kept = append(kept, name)
		}
	}
	sort.Strings(kept)
	for name, m := range got {
		if !m.HasAllocs {
			return nil, fmt.Errorf("%s: cannot baseline without allocs/op", name)
		}
		base.Benchmarks[name] = BaselineEntry{NsPerOp: m.NsPerOp, AllocsPerOp: m.AllocsPerOp}
	}
	b, err := json.MarshalIndent(base, "", "  ")
	if err != nil {
		return nil, err
	}
	return kept, os.WriteFile(path, append(b, '\n'), 0o644)
}

func main() {
	cli.Exit(run(os.Args[1:], os.Stdin, os.Stdout, os.Stderr))
}

// run is main with the process edges (args, streams, exit) abstracted
// so tests can drive every exit path. Exit status follows the repo
// convention: 2 is reserved for usage errors (bad flags or arguments);
// everything that can only fail at runtime — unreadable input or
// baseline files, malformed bench output, gate violations — exits 1.
func run(args []string, stdin io.Reader, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("benchgate", flag.ContinueOnError)
	fs.SetOutput(stderr)
	baselinePath := fs.String("baseline", "", "baseline JSON file to gate against")
	write := fs.String("write", "", "pin the input's benchmarks in this baseline JSON file instead of gating; other entries and an existing file's max_time_ratio are kept, so a renamed or deleted benchmark's entry must be removed by hand")
	ratio := fs.Float64("ratio", 2.0, "maximum measured/baseline ns/op ratio (overridden by the baseline's max_time_ratio)")
	input := fs.String("input", "-", "bench output file (default stdin)")
	ab := fs.Bool("ab", false, "paired A/B mode: benchmark the -base revision against the working tree instead of gating input")
	var abc abConfig
	fs.StringVar(&abc.bench, "bench", "", "benchmark regex (go test -bench syntax) of the alloc pass, and of the -ab rounds")
	fs.StringVar(&abc.base, "base", "", "-ab: base revision (default: the merge-base of HEAD and main; HEAD on a clean tree is an A/A run)")
	overlay := fs.String("overlay", "", "-ab: comma-separated repo-relative files copied from the working tree into the baseline checkout (e.g. a benchmark file the baseline lacks)")
	if err := fs.Parse(args); err != nil {
		return cli.ExitUsage
	}

	usage := func(format string, args ...any) int {
		fmt.Fprintf(stderr, "benchgate: "+format+"\n", args...)
		return cli.ExitUsage
	}
	fail := func(format string, args ...any) int {
		fmt.Fprintf(stderr, "benchgate: "+format+"\n", args...)
		return cli.ExitFail
	}
	if fs.NArg() > 0 {
		return usage("unexpected argument %q", fs.Arg(0))
	}
	if *ab {
		switch {
		case *baselinePath != "" || *write != "" || *input != "-":
			return usage("-ab runs its own benchmarks; it takes no -baseline, -write or -input")
		case abc.bench == "":
			return usage("-ab requires -bench")
		}
		if *overlay != "" {
			abc.overlay = strings.Split(*overlay, ",")
		}
		return runAB(abc, stdout, stderr)
	}
	if abc.base != "" {
		return usage("-base is an -ab option")
	}
	if (*baselinePath == "") == (*write == "") {
		return usage("exactly one of -baseline or -write is required")
	}
	if abc.bench == "" {
		return usage("-bench is required: it selects the alloc pass's benchmarks")
	}

	in := stdin
	if *input != "-" {
		f, err := os.Open(*input)
		if err != nil {
			return fail("%v", err)
		}
		defer f.Close()
		in = f
	}
	got, err := parseBench(in, false)
	if err != nil {
		return fail("%v", err)
	}
	if len(got) == 0 {
		return fail("no benchmark results in input")
	}
	var base Baseline
	if *baselinePath != "" {
		raw, err := os.ReadFile(*baselinePath)
		if err != nil {
			return fail("%v", err)
		}
		if err := json.Unmarshal(raw, &base); err != nil {
			return fail("%s: %v", *baselinePath, err)
		}
		if len(base.Benchmarks) == 0 {
			return fail("%s: baseline gates no benchmarks", *baselinePath)
		}
	}
	out, err := allocPass(abc.bench)
	if err != nil {
		return fail("alloc pass: %v\n%s", err, out)
	}
	allocs, err := parseBench(bytes.NewReader(out), true)
	if err != nil {
		return fail("alloc pass: %v", err)
	}
	withAllocs(got, allocs)

	if *write != "" {
		kept, err := writeBaseline(*write, got, *ratio)
		if err != nil {
			return fail("%v", err)
		}
		fmt.Fprintf(stderr, "benchgate: pinned %d benchmarks in %s\n", len(got), *write)
		for _, name := range kept {
			fmt.Fprintf(stderr, "benchgate: kept %s, which this run did not measure (remove it by hand if it is gone)\n", name)
		}
		return cli.ExitOK
	}
	if bad := gate(base, got, *ratio); len(bad) > 0 {
		for _, line := range bad {
			fmt.Fprintln(stderr, "benchgate:", line)
		}
		return cli.ExitFail
	}
	fmt.Fprintf(stdout, "benchgate: %d benchmarks within limits\n", len(base.Benchmarks))
	return cli.ExitOK
}
