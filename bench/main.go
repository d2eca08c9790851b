// Command cbwsbench is the repository's end-to-end benchmark: three
// workloads over the simulator, the trace toolchain and the cbwsd
// service, each checked against golden/seed.json, with a traced mode
// that decomposes the run into per-layer self times.
//
// Usage (from the repository root, normally through bench/run.sh, which
// builds this binary and cbwsd first):
//
//	cbwsbench -root . -cbwsd .bench_build/cbwsd -workload matrix-live \
//	          -seed 1 -seconds 38 -trace 0 [-spans FILE]
//
// The last line of standard output is one JSON object with the keys
// correct, attempted, failed and metrics. Untraced runs (-trace 0)
// report the end-to-end metrics; traced runs (-trace 1) report the
// per-layer metrics. Every output is verified; any mismatch makes the
// exit code 1. See bench/README.md for the metric glossary.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"math/rand/v2"
	"os"
	"path/filepath"
	"runtime"
	"slices"
	"sort"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"cbws/internal/harness"
	"cbws/internal/workload"
)

// scale sizes one benchmark run. goldenScale is what BENCHMARK.json
// runs; tests substitute a toy scale.
type scale struct {
	instr, warmup uint64 // simulation window per cell (the golden window)
	toolInstr     uint64 // instruction budget per workload in trace-tools
	specs         []workload.Spec
	factories     []harness.Factory
	minReps       int           // fewest rounds per untraced run
	sampleSpecs   int           // workloads in the ledger sample of non-matrix workloads
	hotCells      int           // hot set of a hot phase's request mix
	hotFrac       float64       // share of requests drawn from the hot set of a hot phase
	probeHot      time.Duration // hot phase of the traced service probe
	chunkBytes    int           // stream chunk size
}

func goldenScale() scale {
	return scale{
		instr: 400_000, warmup: 100_000, toolInstr: 1_000_000,
		specs: workload.All(), factories: harness.GoldenPrefetchers(),
		minReps: 3, sampleSpecs: 4,
		hotCells: 8, hotFrac: 0.9, probeHot: time.Second, chunkBytes: 64 << 10,
	}
}

// config is everything a run needs besides the workload itself.
type config struct {
	root     string // repository root
	cbwsd    string // daemon binary
	workload string
	seed     uint64
	seconds  float64
	traced   bool
	spans    string
	scale    scale
	golden   *harness.GoldenManifest
	out      io.Writer // human-readable report lines
}

type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// result is the final JSON line.
type result struct {
	Correct   bool              `json:"correct"`
	Attempted int64             `json:"attempted"`
	Failed    int64             `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`
}

// bench is the state of one run.
type bench struct {
	config
	nproc     int
	work      string     // scratch directory, removed at exit
	rng       *rand.Rand // every seeded choice draws from this stream
	tr        *tracer    // nil when untraced
	goldenBy  map[string]string
	attempted atomic.Int64
	failed    atomic.Int64
	metrics   map[string]metric
	failMu    sync.Mutex
	failures  []string
}

var workloads = map[string]func(*bench) error{
	"matrix-live":  runMatrixLive,
	"trace-tools":  runTraceTools,
	"service-cold": runServiceCold,
}

func main() {
	root := flag.String("root", ".", "repository root (holds golden/seed.json)")
	cbwsd := flag.String("cbwsd", "", "cbwsd binary for the service workloads")
	wl := flag.String("workload", "", "matrix-live, trace-tools or service-cold")
	seed := flag.Uint64("seed", 1, "seed for every schedule, sample and request mix")
	seconds := flag.Float64("seconds", 10, "measured time per run, in seconds")
	trace := flag.Int("trace", 0, "1: traced run reporting per-layer metrics")
	spans := flag.String("spans", "", "traced runs: write the spans as JSON here")
	flag.Parse()
	if flag.NArg() > 0 || workloads[*wl] == nil || *trace < 0 || *trace > 1 || *seconds <= 0 {
		fmt.Fprintf(os.Stderr, "cbwsbench: bad arguments (workload %q, trace %d, seconds %g)\n", *wl, *trace, *seconds)
		flag.Usage()
		os.Exit(2)
	}
	golden, err := harness.ReadGolden(filepath.Join(*root, "golden", "seed.json"))
	if err != nil {
		fmt.Fprintf(os.Stderr, "cbwsbench: %v\n", err)
		os.Exit(2)
	}
	res, err := run(config{
		root: *root, cbwsd: *cbwsd, workload: *wl, seed: *seed, seconds: *seconds,
		traced: *trace == 1, spans: *spans, scale: goldenScale(), golden: golden, out: os.Stdout,
	})
	if err != nil {
		fmt.Fprintf(os.Stderr, "cbwsbench: %v\n", err)
		os.Exit(1)
	}
	line, err := json.Marshal(res)
	if err != nil {
		fmt.Fprintf(os.Stderr, "cbwsbench: %v\n", err)
		os.Exit(1)
	}
	fmt.Println(string(line))
	if !res.Correct {
		os.Exit(1)
	}
}

// newBench validates the configuration and prepares a run's state and
// scratch directory (the caller removes b.work).
func newBench(cfg config) (*bench, error) {
	sc := cfg.scale
	if cfg.golden.Instructions != sc.instr || cfg.golden.Warmup != sc.warmup {
		return nil, fmt.Errorf("golden manifest window %d/%d differs from the benchmark's %d/%d",
			cfg.golden.Instructions, cfg.golden.Warmup, sc.instr, sc.warmup)
	}
	if err := os.MkdirAll(filepath.Join(cfg.root, ".bench_build"), 0o755); err != nil {
		return nil, err
	}
	work, err := os.MkdirTemp(filepath.Join(cfg.root, ".bench_build"), "run-")
	if err != nil {
		return nil, err
	}
	b := &bench{
		config:   cfg,
		nproc:    runtime.NumCPU(),
		work:     work,
		rng:      rand.New(rand.NewPCG(cfg.seed, 0x6362777362656e63)),
		goldenBy: make(map[string]string, len(cfg.golden.Cells)),
		metrics:  make(map[string]metric),
	}
	for _, c := range cfg.golden.Cells {
		b.goldenBy[cellKey(c.Workload, c.Prefetcher)] = c.Hash
	}
	if cfg.traced {
		b.tr = newTracer()
	}
	return b, nil
}

// run executes one workload and assembles its result. An error means
// the benchmark could not run at all; output mismatches are counted in
// the result instead.
func run(cfg config) (*result, error) {
	b, err := newBench(cfg)
	if err != nil {
		return nil, err
	}
	defer os.RemoveAll(b.work)
	fmt.Fprintf(cfg.out, "cbwsbench %s seed=%d seconds=%g trace=%v nproc=%d gomaxprocs=%d go=%s\n",
		cfg.workload, cfg.seed, cfg.seconds, cfg.traced, b.nproc, runtime.GOMAXPROCS(0), runtime.Version())
	if err := workloads[cfg.workload](b); err != nil {
		return nil, err
	}
	if b.tr != nil && cfg.spans != "" {
		if err := b.tr.write(cfg.spans); err != nil {
			return nil, err
		}
	}
	names := make([]string, 0, len(b.metrics))
	for n := range b.metrics {
		names = append(names, n)
	}
	sort.Strings(names)
	for _, n := range names {
		fmt.Fprintf(cfg.out, "  %-34s %14.6g %s\n", n, b.metrics[n].Value, b.metrics[n].Unit)
	}
	for _, f := range b.failures {
		fmt.Fprintf(os.Stderr, "cbwsbench: check failed: %s\n", f)
	}
	failed := b.failed.Load()
	return &result{
		Correct: failed == 0, Attempted: b.attempted.Load(), Failed: failed, Metrics: b.metrics,
	}, nil
}

// check counts one verified operation; ok == false records a failure.
func (b *bench) check(ok bool, format string, args ...any) bool {
	b.attempted.Add(1)
	if !ok {
		b.failed.Add(1)
		b.note(fmt.Sprintf(format, args...))
	}
	return ok
}

// note keeps a failure message for the report (the first 20).
func (b *bench) note(msg string) {
	b.failMu.Lock()
	defer b.failMu.Unlock()
	if len(b.failures) < 20 {
		b.failures = append(b.failures, msg)
	}
}

// checkErr counts one operation that failed when err is non-nil.
func (b *bench) checkErr(err error, what string) bool {
	if err != nil {
		return b.check(false, "%s: %v", what, err)
	}
	return b.check(true, "")
}

func (b *bench) set(name, unit string, v float64) { b.metrics[name] = metric{Value: v, Unit: unit} }

// setLatency records a latency metric in milliseconds and prints its
// sample count.
func (b *bench) setLatency(name string, q float64, d []time.Duration) {
	b.set(name, "ms", ms(quantile(d, q)))
	fmt.Fprintf(b.out, "  %-34s n=%d\n", name+" samples", len(d))
}

// goldenHash returns the pinned hash of one cell.
func (b *bench) goldenHash(wl, pf string) string { return b.goldenBy[cellKey(wl, pf)] }

func cellKey(wl, pf string) string { return wl + "/" + pf }

// pfMetricName maps a scheme name to the form used in metric names
// ("ghb-pc/dc" → "ghb-pc-dc", "cbws+sms" → "cbws-sms").
func pfMetricName(pf string) string {
	return strings.NewReplacer("/", "-", "+", "-").Replace(pf)
}

// e2e collects a run's measurements. A run repeats its workload in
// rounds, each a set-up followed by one measured unit (a fill, a pass, a
// sweep), until its time is spent. Every unit is made of the same parts
// (cells, toolchain steps), and each part keeps its fastest time.
type e2e struct {
	setup  []float64                // seconds per set-up
	best   map[string]time.Duration // fastest time of each recurring part of a unit
	ops    int                      // operations the parts make up; 0: one per part
	peakMB []float64                // peak resident set of the serving process, per unit
	rate   []float64                // operations per second, per unit
	cpu    []float64                // CPU ms of the serving process per operation, per unit
	lat    []time.Duration          // per-operation latency, pooled
}

func newE2E() *e2e { return &e2e{best: make(map[string]time.Duration)} }

// part records one occurrence of the recurring part id of a unit: an
// operation, or a step of one.
func (e *e2e) part(id string, d time.Duration) {
	if b, ok := e.best[id]; !ok || d < b {
		e.best[id] = d
	}
}

// unit records one measured unit: the latencies of its operations, its
// wall time, the CPU time of the serving process and that process's peak
// resident set during the unit.
func (e *e2e) unit(lat []time.Duration, wall, cpu time.Duration, peakMB float64) {
	ops := float64(len(lat))
	e.rate = append(e.rate, ops/wall.Seconds())
	e.cpu = append(e.cpu, ms(cpu)/ops)
	e.peakMB = append(e.peakMB, peakMB)
	e.lat = append(e.lat, lat...)
}

// opMS is the sum of the parts' fastest times per operation.
func (e *e2e) opMS() float64 {
	var sum time.Duration
	for _, d := range e.best {
		sum += d
	}
	n := e.ops
	if n == 0 {
		n = len(e.best)
	}
	return ms(sum) / float64(n)
}

// reportE2E sets the end-to-end metrics of an untraced run, or the
// per-layer metrics a traced run takes from its untraced unit.
//
// Other tenants of the host slow everything, CPU time included, by up to
// 1.8× in phases lasting from seconds to most of a minute. Interference
// only ever adds time, so the timing an untraced run reports, op_ms, sums
// each part's fastest time in the run: a part needs one quick moment of
// its own, not a quick unit. Whole-unit throughput and CPU cost need a
// whole unit to fall in a quick phase, which a run does not always see;
// traced runs report them per layer. Peak memory is not slowed by
// contention and reports the median unit, set-up the median set-up.
func (b *bench) reportE2E(e *e2e) {
	if b.tr != nil {
		b.setLatency("op_p95_ms", 0.95, e.lat)
		b.set("ops_per_s", "1/s", slices.Max(e.rate))
		b.set("cpu_ms_per_op", "ms", slices.Min(e.cpu))
		return
	}
	b.set("setup_s", "s", median(e.setup))
	b.set("op_ms", "ms", e.opMS())
	b.set("peak_rss_mb", "MB", median(e.peakMB))
	fmt.Fprintf(b.out, "  rounds=%d parts=%d latency samples=%d\n", len(e.rate), len(e.best), len(e.lat))
	for _, v := range []struct {
		name string
		vals []float64
	}{{"setup_s", e.setup}, {"ops_per_s", e.rate}, {"cpu_ms_per_op", e.cpu}, {"peak_rss_mb", e.peakMB}} {
		fmt.Fprintf(b.out, "  %s per round: %.4g\n", v.name, v.vals)
	}
}

// timed runs fn and returns its wall time.
func timed(fn func()) time.Duration {
	t := time.Now()
	fn()
	return time.Since(t)
}

func median(v []float64) float64 {
	if len(v) == 0 {
		return 0
	}
	s := append([]float64(nil), v...)
	sort.Float64s(s)
	if len(s)%2 == 1 {
		return s[len(s)/2]
	}
	return (s[len(s)/2-1] + s[len(s)/2]) / 2
}

// quantile is the nearest-rank quantile of a latency sample.
func quantile(d []time.Duration, q float64) time.Duration {
	if len(d) == 0 {
		return 0
	}
	s := append([]time.Duration(nil), d...)
	sort.Slice(s, func(i, j int) bool { return s[i] < s[j] })
	i := int(q*float64(len(s))+0.5) - 1
	if i < 0 {
		i = 0
	}
	if i >= len(s) {
		i = len(s) - 1
	}
	return s[i]
}

func ms(d time.Duration) float64 { return float64(d) / float64(time.Millisecond) }

func sumDur(d []time.Duration) time.Duration {
	var t time.Duration
	for _, x := range d {
		t += x
	}
	return t
}

// parallel runs fn(i) for i in [0, n) on the machine's CPUs, pulling
// indices from a shared counter so faster workers take more items.
func (b *bench) parallel(n int, fn func(i int)) {
	var next atomic.Int64
	var wg sync.WaitGroup
	for g := 0; g < b.nproc; g++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for {
				i := int(next.Add(1)) - 1
				if i >= n {
					return
				}
				fn(i)
			}
		}()
	}
	wg.Wait()
}
