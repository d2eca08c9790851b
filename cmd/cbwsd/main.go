// Command cbwsd is the cbws simulation daemon: a long-running HTTP/JSON
// service that accepts simulation jobs (workload × prefetcher ×
// sim.Config) and CBWT streams, runs every simulation on one slot
// scheduler, and serves results from a content-addressed cache so
// repeated sweeps cost nothing.
//
// Usage:
//
//	cbwsd [-addr 127.0.0.1:8344] [-cache-dir DIR] [-workers N] [-queue N]
//	      [-n instructions] [-warmup instructions] [-config system.json]
//	      [-job-timeout D] [-drain-timeout D] [-addr-file PATH]
//	      [-corpus-dir DIR]
//	      [-peers URL[,URL...]] [-advertise URL]
//	      [-max-streams N] [-tenant-streams N]
//	      [-tenant-rate BYTES/S] [-tenant-burst BYTES]
//	      [-stream-buffer EVENTS] [-stream-idle-timeout D]
//
// -workers bounds every simulation the daemon runs at once, closed jobs
// and streams together; -queue bounds the closed jobs still waiting for
// their first slot.
//
// -addr :0 binds an ephemeral port; combined with -addr-file the bound
// address is written to a file once listening, so scripts can start the
// daemon on a random port and discover it race-free. On SIGINT/SIGTERM
// the daemon drains gracefully: the listener closes, running jobs
// finish (bounded by -drain-timeout), queued jobs are canceled, and the
// daemon exits 0. Every result is on disk as soon as it is stored, so a
// daemon killed without draining restarts with all of them.
//
// -peers turns the daemon into one worker of a fleet: before
// simulating a job it asks the listed sibling daemons for the job's
// content address and serves a sibling's cached bytes when one has
// them (the federated result cache). Every worker can be given the
// same full fleet list — the daemon filters its own -advertise URL
// (default: http://<bound address>) out, so a deployment needs only
// one peer list, not one per worker. The listener is bound before the
// service starts for exactly this reason: with -addr :0 the advertised
// URL is only known once the port is.
package main

import (
	"context"
	"errors"
	"flag"
	"fmt"
	"io"
	"net"
	"net/http"
	"os"
	"os/signal"
	"strings"
	"syscall"
	"time"

	"cbws/internal/cli"
	"cbws/internal/harness"
	"cbws/internal/service"
	"cbws/internal/sim"
)

func main() {
	cli.Exit(run(os.Args[1:], os.Stdout, os.Stderr))
}

// run is main with its environment abstracted for tests.
func run(args []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("cbwsd", flag.ContinueOnError)
	fs.SetOutput(stderr)
	addr := fs.String("addr", "127.0.0.1:8344", "listen address (:0 for an ephemeral port)")
	addrFile := fs.String("addr-file", "", "write the bound address to this file once listening")
	workers := fs.Int("workers", 0, "concurrent simulations, closed jobs and streams together (0: one per CPU)")
	queue := fs.Int("queue", 64, "bound on jobs waiting for their first slot; submissions beyond it get 429")
	cacheDir := fs.String("cache-dir", "", "keep results here, one run record per job, and serve them from here: the heap keeps only an index (default: memory only)")
	n := fs.Uint64("n", 4_000_000, "base instruction budget per job")
	warm := fs.Uint64("warmup", 1_000_000, "base warmup instructions excluded from metrics")
	configPath := fs.String("config", "", "JSON system-config file (overrides Table II defaults)")
	jobTimeout := fs.Duration("job-timeout", 0, "abort a single job after this long (0: no timeout)")
	drainTimeout := fs.Duration("drain-timeout", time.Minute, "bound on finishing running jobs at shutdown")
	interval := fs.Uint64("sample-interval", 0, "probe/progress period in instructions (0: default)")
	corpusDir := fs.String("corpus-dir", "", "replay workloads from packed .cbwc corpora in this directory (others use live generators)")
	peers := fs.String("peers", "", "comma-separated sibling daemon URLs to peer-fetch results from (own URL is filtered out)")
	advertise := fs.String("advertise", "", "this daemon's URL as peers see it (default: http://<bound address>)")
	peerTimeout := fs.Duration("peer-timeout", 2*time.Second, "per-sibling budget for peer-fetch probes")
	maxStreams := fs.Int("max-streams", 0, "daemon-wide open-stream bound, opens beyond it get 429 (0: default 64, -1: unlimited)")
	tenantStreams := fs.Int("tenant-streams", 0, "per-tenant concurrent-stream quota (0: default 4, -1: unlimited)")
	tenantRate := fs.Float64("tenant-rate", 0, "per-tenant sustained chunk-ingest rate in bytes/second (0: default 8 MiB/s)")
	tenantBurst := fs.Float64("tenant-burst", 0, "per-tenant token-bucket burst in bytes; also the largest admissible chunk (0: default 4 MiB)")
	streamBuffer := fs.Int("stream-buffer", 0, "per-stream bound on events buffered ahead of the simulator, held as CBWT bytes (at most 21 per event, ~3.5 typical); a bound, not an allocation (0: default 65536)")
	streamIdle := fs.Duration("stream-idle-timeout", 0, "finalize or cancel a stream after this long without a chunk (0: default 2m, <0: never)")
	if err := fs.Parse(args); err != nil {
		return cli.ExitUsage
	}
	if fs.NArg() > 0 {
		fmt.Fprintf(stderr, "cbwsd: unexpected argument %q\n", fs.Arg(0))
		return cli.ExitUsage
	}
	if *warm >= *n {
		fmt.Fprintf(stderr, "cbwsd: -warmup %d must be smaller than -n %d\n", *warm, *n)
		return cli.ExitUsage
	}

	base := sim.DefaultConfig()
	if *configPath != "" {
		var err error
		base, err = sim.LoadConfig(*configPath)
		if err != nil {
			fmt.Fprintf(stderr, "cbwsd: %v\n", err)
			return cli.ExitFail
		}
	}
	base.MaxInstructions = *n
	base.WarmupInstructions = *warm

	var corpusSrc *harness.CorpusSource
	if *corpusDir != "" {
		src, err := harness.OpenCorpusDir(*corpusDir)
		if err != nil {
			fmt.Fprintf(stderr, "cbwsd: %v\n", err)
			return cli.ExitFail
		}
		corpusSrc = src
		defer corpusSrc.Close()
		fmt.Fprintf(stderr, "cbwsd: corpus replay for %d workload(s) from %s\n",
			len(corpusSrc.Names()), *corpusDir)
	}

	// The listener comes up before the service: with -addr :0 the
	// daemon's own advertised URL exists only after the bind, and the
	// peer list must have self filtered out before the ring is built.
	ln, err := net.Listen("tcp", *addr)
	if err != nil {
		fmt.Fprintf(stderr, "cbwsd: %v\n", err)
		return cli.ExitFail
	}
	bound := ln.Addr().String()
	self := *advertise
	if self == "" {
		self = "http://" + bound
	}
	siblings := filterSelf(splitList(*peers), self)

	svc, err := service.New(service.Config{
		Workers:        *workers,
		QueueDepth:     *queue,
		JobTimeout:     *jobTimeout,
		CacheDir:       *cacheDir,
		BaseSim:        base,
		SampleInterval: *interval,
		Corpus:         corpusSrc,
		Peers:          siblings,
		PeerTimeout:    *peerTimeout,

		MaxStreams:         *maxStreams,
		TenantStreams:      *tenantStreams,
		TenantRateBytes:    *tenantRate,
		TenantBurstBytes:   *tenantBurst,
		StreamBufferEvents: *streamBuffer,
		StreamIdleTimeout:  *streamIdle,
	})
	if err != nil {
		ln.Close()
		fmt.Fprintf(stderr, "cbwsd: %v\n", err)
		return cli.ExitFail
	}

	if *addrFile != "" {
		if err := writeAddrFile(*addrFile, bound); err != nil {
			ln.Close()
			fmt.Fprintf(stderr, "cbwsd: %v\n", err)
			return cli.ExitFail
		}
		defer os.Remove(*addrFile)
	}
	fmt.Fprintf(stderr, "cbwsd: listening on http://%s (version %s, cache %d entries)\n",
		bound, svc.CodeVersion(), svc.Cache().Len())
	if len(siblings) > 0 {
		fmt.Fprintf(stderr, "cbwsd: peering with %d sibling(s) as %s\n", len(siblings), self)
	}

	srv := &http.Server{Handler: svc.Handler()}
	serveErr := make(chan error, 1)
	go func() { serveErr <- srv.Serve(ln) }()

	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	defer stop()
	select {
	case <-ctx.Done():
	case err := <-serveErr:
		fmt.Fprintf(stderr, "cbwsd: serve: %v\n", err)
		return cli.ExitFail
	}
	stop() // a second signal kills immediately

	fmt.Fprintln(stderr, "cbwsd: draining (running jobs finish, queued jobs cancel)")
	shutdownCtx, cancel := context.WithTimeout(context.Background(), *drainTimeout)
	defer cancel()
	if err := srv.Shutdown(shutdownCtx); err != nil && !errors.Is(err, http.ErrServerClosed) {
		fmt.Fprintf(stderr, "cbwsd: shutdown: %v\n", err)
	}
	if err := svc.Drain(shutdownCtx); err != nil {
		fmt.Fprintf(stderr, "cbwsd: drain: %v\n", err)
		return cli.ExitFail
	}
	fmt.Fprintf(stderr, "cbwsd: drained cleanly (cache %d entries)\n", svc.Cache().Len())
	return cli.ExitOK
}

// splitList parses a comma-separated flag value, dropping empties.
func splitList(s string) []string {
	var out []string
	for _, part := range strings.Split(s, ",") {
		if part = strings.TrimSpace(part); part != "" {
			out = append(out, part)
		}
	}
	return out
}

// filterSelf drops the daemon's own advertised URL from the peer list,
// so every worker in a fleet can be handed the identical list.
// Trailing slashes are ignored in the comparison.
func filterSelf(peers []string, self string) []string {
	canon := strings.TrimRight(self, "/")
	var out []string
	for _, p := range peers {
		if strings.TrimRight(p, "/") != canon {
			out = append(out, p)
		}
	}
	return out
}

// writeAddrFile publishes the bound address atomically (write to a temp
// file, then rename), so a polling reader never sees a partial address.
func writeAddrFile(path, addr string) error {
	tmp := path + ".tmp"
	if err := os.WriteFile(tmp, []byte(addr+"\n"), 0o644); err != nil {
		return err
	}
	return os.Rename(tmp, path)
}
