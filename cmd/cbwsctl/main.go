// Command cbwsctl is the client for cbwsd simulation daemons — one, or
// a whole fleet.
//
// Usage:
//
//	cbwsctl [-server URL[,URL...]] submit -workload W -prefetcher P [-n N] [-warmup N] [-wait]
//	        [-workload-hash SHA256]
//	cbwsctl [-server URL[,URL...]] status KEY
//	cbwsctl [-server URL[,URL...]] result KEY [-o FILE]
//	cbwsctl [-server URL[,URL...]] sweep -workloads A,B -prefetchers X,Y [-n N] [-warmup N]
//	        [-golden FILE] [-require-cached] [-out DIR]
//	cbwsctl [-server URL[,URL...]] stream -tenant T -workload W -prefetcher P
//	        [-n N] [-warmup N] [-f FILE|-] [-chunk BYTES]
//
// stream feeds a CBWT trace (file or stdin) into a live streaming
// simulation on the first server: the daemon simulates chunks as they
// arrive, admission control (429/413 + Retry-After) is honored by
// waiting it out, and the finalized run record's content address is
// printed when the stream completes.
//
// -server takes a single daemon URL (the classic setup) or a
// comma-separated fleet. Against a fleet every operation is ring-aware:
// submissions route to the consistent-hash owner of the job's content,
// sweeps shard their cells across the workers, and a worker dying
// mid-sweep is survived by resubmitting its cells to the next worker
// on the ring — content-addressed jobs make the rerun bit-identical.
//
// submit posts one job and prints its content address (with -wait it
// polls until the job finishes). status and result look a job up
// across the fleet by that address. sweep drives a full workload ×
// prefetcher matrix: every cell is submitted (429 backpressure is
// honored by sleeping the server's jittered Retry-After and retrying),
// polled to completion, fetched, and validated as a run record. With
// -golden each served result's canonical cell hash is compared against
// the manifest's — the same hashes golden/seed.json pins — so a sweep
// can prove a remote daemon (or a whole cluster) bit-identical to the
// local seed without rerunning anything. With -require-cached the
// sweep fails unless every cell was answered from a daemon's
// content-addressed cache, which is how CI asserts a repeated sweep is
// 100% cache hits.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"strings"
	"time"

	apiv1 "cbws/api/v1"
	"cbws/internal/cli"
	"cbws/internal/cluster"
	"cbws/internal/harness"
	"cbws/internal/sim"
)

func main() {
	cli.Exit(run(os.Args[1:], os.Stdout, os.Stderr))
}

func usage(stderr io.Writer) int {
	fmt.Fprintln(stderr, "usage: cbwsctl [-server URL[,URL...]] {submit|status|result|sweep|stream} ...")
	return cli.ExitUsage
}

// run is main with its environment abstracted for tests.
func run(args []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("cbwsctl", flag.ContinueOnError)
	fs.SetOutput(stderr)
	server := fs.String("server", "http://127.0.0.1:8344", "cbwsd base URL, or a comma-separated fleet")
	timeout := fs.Duration("timeout", 10*time.Minute, "overall budget for waiting on jobs")
	poll := fs.Duration("poll", 100*time.Millisecond, "status polling period")
	if err := fs.Parse(args); err != nil {
		return cli.ExitUsage
	}
	if fs.NArg() == 0 {
		return usage(stderr)
	}
	fleet, err := cluster.New(splitList(*server), func(w *apiv1.Client) {
		w.Budget = *timeout
		w.Poll = *poll
		w.Logf = func(format string, a ...any) {
			fmt.Fprintf(stderr, "cbwsctl: "+format+"\n", a...)
		}
	})
	if err != nil {
		fmt.Fprintf(stderr, "cbwsctl: -server: %v\n", err)
		return cli.ExitUsage
	}
	c := &ctl{fleet: fleet}
	cmd, rest := fs.Arg(0), fs.Args()[1:]
	switch cmd {
	case "submit":
		return c.cmdSubmit(rest, stdout, stderr)
	case "status":
		return c.cmdStatus(rest, stdout, stderr)
	case "result":
		return c.cmdResult(rest, stdout, stderr)
	case "sweep":
		return c.cmdSweep(rest, stdout, stderr)
	case "stream":
		return c.cmdStream(rest, stdout, stderr)
	default:
		fmt.Fprintf(stderr, "cbwsctl: unknown command %q\n", cmd)
		return usage(stderr)
	}
}

// ctl binds the subcommands to a fleet client. A single -server URL is
// just a one-worker fleet: the ring routes everything to it.
type ctl struct {
	fleet *cluster.Client
}

// worker returns the per-daemon client of the first fleet member, for
// operations that are stateful on a single daemon (streams).
func (c *ctl) worker() *apiv1.Client {
	return c.fleet.Worker(c.fleet.Workers()[0])
}

// requestBody builds one submit body. n/warm of 0 mean "daemon
// default": no config override is sent at all.
func requestBody(wl, pf, wlHash string, n, warm uint64, warmSet bool) ([]byte, error) {
	req := apiv1.SubmitRequest{Workload: wl, Prefetcher: pf, WorkloadHash: wlHash}
	cfg := map[string]uint64{}
	if n > 0 {
		cfg["MaxInstructions"] = n
	}
	if warmSet {
		cfg["WarmupInstructions"] = warm
	}
	if len(cfg) > 0 {
		b, err := json.Marshal(cfg)
		if err != nil {
			return nil, err
		}
		req.Config = b
	}
	return json.Marshal(req)
}

func (c *ctl) cmdSubmit(args []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("cbwsctl submit", flag.ContinueOnError)
	fs.SetOutput(stderr)
	wl := fs.String("workload", "", "workload name")
	pf := fs.String("prefetcher", "", "prefetcher name")
	n := fs.Uint64("n", 0, "instruction budget (0: daemon default)")
	warm := fs.Uint64("warmup", 0, "warmup instructions")
	wlHash := fs.String("workload-hash", "", "pin the corpus content address the job must run from (daemon 409s on mismatch)")
	wait := fs.Bool("wait", false, "poll until the job finishes")
	if err := fs.Parse(args); err != nil {
		return cli.ExitUsage
	}
	if *wl == "" || *pf == "" {
		fmt.Fprintln(stderr, "cbwsctl submit: -workload and -prefetcher are required")
		return cli.ExitUsage
	}
	body, err := requestBody(*wl, *pf, *wlHash, *n, *warm, flagSet(fs, "warmup"))
	if err != nil {
		fmt.Fprintf(stderr, "cbwsctl: %v\n", err)
		return cli.ExitFail
	}
	view, worker, err := c.fleet.Submit(string(body), body)
	if err != nil {
		fmt.Fprintf(stderr, "cbwsctl: %v\n", err)
		return cli.ExitFail
	}
	if *wait && view.Status != apiv1.StatusDone {
		if view, _, _, err = c.fleet.Collect(worker, string(body), body, view.Key); err != nil {
			fmt.Fprintf(stderr, "cbwsctl: %v\n", err)
			return cli.ExitFail
		}
	}
	printView(stdout, view)
	return cli.ExitOK
}

func flagSet(fs *flag.FlagSet, name string) bool {
	set := false
	fs.Visit(func(f *flag.Flag) {
		if f.Name == name {
			set = true
		}
	})
	return set
}

func printView(w io.Writer, view apiv1.JobView) {
	cached := ""
	if view.Cached {
		cached = " (cached)"
	}
	fmt.Fprintf(w, "%s  %s/%s  %s%s", view.Key, view.Workload, view.Prefetcher, view.Status, cached)
	if view.Status == apiv1.StatusRunning && view.Progress.MaxInstructions > 0 {
		fmt.Fprintf(w, "  %d/%d instructions", view.Progress.Instructions, view.Progress.MaxInstructions)
	}
	if view.Error != "" {
		fmt.Fprintf(w, "  error: %s", view.Error)
	}
	fmt.Fprintln(w)
}

func (c *ctl) cmdStatus(args []string, stdout, stderr io.Writer) int {
	if len(args) != 1 {
		fmt.Fprintln(stderr, "usage: cbwsctl status KEY")
		return cli.ExitUsage
	}
	view, err := c.fleet.StatusAny(args[0])
	if err != nil {
		fmt.Fprintf(stderr, "cbwsctl: %v\n", err)
		return cli.ExitFail
	}
	printView(stdout, view)
	return cli.ExitOK
}

func (c *ctl) cmdResult(args []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("cbwsctl result", flag.ContinueOnError)
	fs.SetOutput(stderr)
	out := fs.String("o", "", "write the run record here instead of stdout")
	if err := fs.Parse(args); err != nil {
		return cli.ExitUsage
	}
	if fs.NArg() != 1 {
		fmt.Fprintln(stderr, "usage: cbwsctl result [-o FILE] KEY")
		return cli.ExitUsage
	}
	data, err := c.fleet.ResultAny(fs.Arg(0))
	if err != nil {
		fmt.Fprintf(stderr, "cbwsctl: %v\n", err)
		return cli.ExitFail
	}
	if *out != "" {
		if err := os.WriteFile(*out, data, 0o644); err != nil {
			fmt.Fprintf(stderr, "cbwsctl: %v\n", err)
			return cli.ExitFail
		}
		return cli.ExitOK
	}
	_, _ = stdout.Write(data)
	return cli.ExitOK
}

// sweepCell is one matrix cell's outcome.
type sweepCell struct {
	Workload   string
	Prefetcher string
	Key        string
	Cached     bool
	Record     *harness.RunRecord

	body   []byte // submit body; doubles as the ring route key
	worker string // worker that accepted the submission
}

func (c *ctl) cmdSweep(args []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("cbwsctl sweep", flag.ContinueOnError)
	fs.SetOutput(stderr)
	wls := fs.String("workloads", "", "comma-separated workload names")
	pfs := fs.String("prefetchers", "", "comma-separated prefetcher names")
	n := fs.Uint64("n", 0, "instruction budget per cell (0: daemon default)")
	warm := fs.Uint64("warmup", 0, "warmup instructions per cell")
	golden := fs.String("golden", "", "compare served cell hashes against this golden manifest")
	requireCached := fs.Bool("require-cached", false, "fail unless every cell is served from the cache")
	outDir := fs.String("out", "", "write each cell's run record into this directory")
	if err := fs.Parse(args); err != nil {
		return cli.ExitUsage
	}
	workloads := splitList(*wls)
	prefetchers := splitList(*pfs)
	if len(workloads) == 0 || len(prefetchers) == 0 {
		fmt.Fprintln(stderr, "cbwsctl sweep: -workloads and -prefetchers are required")
		return cli.ExitUsage
	}
	var manifest *harness.GoldenManifest
	if *golden != "" {
		var err error
		manifest, err = harness.ReadGolden(*golden)
		if err != nil {
			fmt.Fprintf(stderr, "cbwsctl: %v\n", err)
			return cli.ExitFail
		}
	}

	// Submit every cell first — the ring shards them across the fleet,
	// each daemon dedups and queues — then collect: the daemons' slot
	// schedulers provide the parallelism.
	cells := make([]*sweepCell, 0, len(workloads)*len(prefetchers))
	for _, wl := range workloads {
		for _, pf := range prefetchers {
			body, err := requestBody(wl, pf, "", *n, *warm, flagSet(fs, "warmup"))
			if err != nil {
				fmt.Fprintf(stderr, "cbwsctl: %v\n", err)
				return cli.ExitFail
			}
			view, worker, err := c.fleet.Submit(string(body), body)
			if err != nil {
				fmt.Fprintf(stderr, "cbwsctl: %s/%s: %v\n", wl, pf, err)
				return cli.ExitFail
			}
			cells = append(cells, &sweepCell{
				Workload: wl, Prefetcher: pf, Key: view.Key,
				Cached: view.Cached && view.Status == apiv1.StatusDone,
				body:   body, worker: worker,
			})
		}
	}

	cachedCount := 0
	var mismatches []string
	for _, cell := range cells {
		_, data, _, err := c.fleet.Collect(cell.worker, string(cell.body), cell.body, cell.Key)
		if err != nil {
			fmt.Fprintf(stderr, "cbwsctl: %s/%s: %v\n", cell.Workload, cell.Prefetcher, err)
			return cli.ExitFail
		}
		rec := &harness.RunRecord{}
		if err := json.Unmarshal(data, rec); err != nil {
			fmt.Fprintf(stderr, "cbwsctl: %s/%s: decoding result: %v\n", cell.Workload, cell.Prefetcher, err)
			return cli.ExitFail
		}
		if err := rec.Validate(); err != nil {
			fmt.Fprintf(stderr, "cbwsctl: %s/%s: invalid run record: %v\n", cell.Workload, cell.Prefetcher, err)
			return cli.ExitFail
		}
		cell.Record = rec
		if cell.Cached {
			cachedCount++
		}
		if *outDir != "" {
			name := sanitize(cell.Workload) + "__" + sanitize(cell.Prefetcher) + ".json"
			if err := os.WriteFile(filepath.Join(*outDir, name), data, 0o644); err != nil {
				fmt.Fprintf(stderr, "cbwsctl: %v\n", err)
				return cli.ExitFail
			}
		}
		if manifest != nil {
			got := harness.CellHash(sim.Result{
				Workload:   rec.Workload,
				Prefetcher: rec.Prefetcher,
				Metrics:    rec.Metrics,
			})
			want, ok := goldenHash(manifest, rec.Workload, rec.Prefetcher)
			switch {
			case !ok:
				mismatches = append(mismatches,
					fmt.Sprintf("%s/%s: not in golden manifest", rec.Workload, rec.Prefetcher))
			case want != got:
				mismatches = append(mismatches,
					fmt.Sprintf("%s/%s: hash diverged (want %.12s…, got %.12s…)", rec.Workload, rec.Prefetcher, want, got))
			}
		}
	}

	fmt.Fprintf(stdout, "sweep: %d cells, %d served from cache\n", len(cells), cachedCount)
	for _, cell := range cells {
		m := cell.Record.Metrics
		tag := ""
		if cell.Cached {
			tag = "  [cached]"
		}
		fmt.Fprintf(stdout, "  %-26s %-10s IPC %.4f  MPKI %.2f%s\n",
			cell.Workload, cell.Prefetcher, m.IPC(), m.MPKI(), tag)
	}
	if down := c.fleet.Down(); len(down) > 0 {
		fmt.Fprintf(stderr, "cbwsctl: %d worker(s) died during the sweep: %s\n", len(down), strings.Join(down, ", "))
	}
	for _, mm := range mismatches {
		fmt.Fprintf(stderr, "cbwsctl: golden mismatch: %s\n", mm)
	}
	if len(mismatches) > 0 {
		return cli.ExitFail
	}
	if manifest != nil {
		fmt.Fprintf(stdout, "golden: all %d cells match %s\n", len(cells), *golden)
	}
	if *requireCached && cachedCount != len(cells) {
		fmt.Fprintf(stderr, "cbwsctl: -require-cached: only %d/%d cells were cache hits\n", cachedCount, len(cells))
		return cli.ExitFail
	}
	return cli.ExitOK
}

func splitList(s string) []string {
	var out []string
	for _, part := range strings.Split(s, ",") {
		if part = strings.TrimSpace(part); part != "" {
			out = append(out, part)
		}
	}
	return out
}

// sanitize maps roster names to safe file names ("ghb-pc/dc" →
// "ghb-pc_dc").
func sanitize(name string) string {
	return strings.NewReplacer("/", "_", " ", "_").Replace(name)
}

// goldenHash looks up one cell's pinned hash in a manifest.
func goldenHash(g *harness.GoldenManifest, wl, pf string) (string, bool) {
	for _, c := range g.Cells {
		if c.Workload == wl && c.Prefetcher == pf {
			return c.Hash, true
		}
	}
	return "", false
}
