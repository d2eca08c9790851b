// Package cbws is a from-scratch reproduction of the code block working
// set (CBWS) prefetcher of Fuchs, Mannor, Weiser and Etsion,
// "Loop-Aware Memory Prefetching Using Code Block Working Sets",
// MICRO 2014.
//
// The package provides the paper's complete experimental apparatus as a
// library:
//
//   - a trace-driven out-of-order core and two-level cache hierarchy
//     matching the paper's Table II configuration;
//   - the CBWS prefetcher itself (sub-1KB hardware budget, 16-line
//     working-set vectors, 4-step differential prediction, 16-entry
//     history table) plus the CBWS+SMS integration;
//   - the four baseline prefetchers it is evaluated against: stride,
//     GHB G/DC, GHB PC/DC and spatial memory streaming (SMS), plus two
//     learned baselines from the related work — a Pythia-style
//     online-RL prefetcher and a Gaze-style spatial prefetcher;
//   - 30 workload emulations standing in for the paper's SPEC CPU2006 /
//     PARSEC / SPLASH / Rodinia / Parboil benchmarks;
//   - a mini-IR with an automatic innermost-tight-loop annotation pass,
//     reproducing the paper's LLVM-based BLOCK_BEGIN/BLOCK_END
//     instrumentation.
//
// Quick start — prefetchers are constructed by name from the scheme
// registry, and runs go through the context-aware entry point, which
// accepts functional options for observability:
//
//	cfg := cbws.DefaultConfig()
//	cfg.MaxInstructions = 2_000_000
//	wl, _ := cbws.WorkloadByName("stencil-default")
//	pf, _ := cbws.NewPrefetcher("cbws+sms")
//
//	series := cbws.NewTimeSeries(64)
//	res, err := cbws.RunContext(ctx, cfg, wl.Make(), pf,
//	    cbws.WithProbe(series),
//	    cbws.WithSampleInterval(100_000))
//	fmt.Println(res.Metrics.IPC(), res.Metrics.MPKI())
//	for _, p := range series.Points() {
//	    fmt.Println(p.Instructions, p.Interval.IPC()) // IPC over time
//	}
//
// Cancelling ctx aborts the simulation promptly (checked at trace batch
// boundaries) and returns ctx.Err(). cbws.Run is shorthand for
// RunContext with a background context and no options, and
// cbws.Prefetchers lists every registered scheme name.
//
// The cmd/figures binary regenerates every table and figure of the
// paper's evaluation (with -obs-dir it also writes per-cell run records
// and time-series files); cmd/cbwsim simulates a single workload ×
// prefetcher pair (-obs writes its run record); cmd/tracegen captures
// annotated traces to disk. All CLIs serve pprof and expvar diagnostics
// under an opt-in -debug-addr flag.
package cbws

import (
	"context"

	"cbws/internal/core"
	"cbws/internal/prefetch"
	"cbws/internal/registry"
	"cbws/internal/sim"
	"cbws/internal/stats"
	"cbws/internal/trace"
	"cbws/internal/workload"
)

// Config is the full simulated-system configuration (core, memory
// hierarchy, instruction window).
type Config = sim.Config

// Result is the outcome of one simulation run.
type Result = sim.Result

// Metrics are the measured counters and derived statistics of a run.
type Metrics = stats.Metrics

// Prefetcher is a hardware prefetching scheme.
type Prefetcher = prefetch.Prefetcher

// Workload generates a committed-instruction trace.
type Workload = trace.Generator

// WorkloadSpec names and constructs one benchmark emulation.
type WorkloadSpec = workload.Spec

// CBWSConfig parametrizes the CBWS prefetcher hardware; its zero value
// uses the paper's sub-1KB configuration.
type CBWSConfig = core.Config

// Option configures a RunContext run (WithProbe, WithSampleInterval,
// WithProgress).
type Option = sim.Option

// Probe observes a run as it executes; see RunContext and WithProbe.
type Probe = sim.Probe

// Sample is one probe observation: interval and cumulative metrics plus
// ROB/MSHR occupancy. The pointer handed to a Probe is reused between
// samples and must not be retained.
type Sample = sim.Sample

// SamplePoint is the retained, serializable form of one sample.
type SamplePoint = sim.SamplePoint

// TimeSeries is a Probe recording every sample as a SamplePoint.
type TimeSeries = sim.TimeSeries

// DefaultConfig returns the paper's Table II system: a 4-wide, 128-entry
// ROB core with a 32KB 4-way L1D, an inclusive 2MB 8-way L2 and a
// 300-cycle memory.
func DefaultConfig() Config { return sim.DefaultConfig() }

// Run simulates workload wl on the configured system under prefetcher
// pf and returns the collected metrics. It is RunContext with a
// background context and no options.
func Run(cfg Config, wl Workload, pf Prefetcher) (Result, error) {
	return RunContext(context.Background(), cfg, wl, pf)
}

// RunContext simulates workload wl on the configured system under
// prefetcher pf. Cancelling ctx aborts the run promptly (checked at
// trace batch boundaries) and returns ctx.Err(). Options attach
// observability: WithProbe samples full metrics plus ROB/MSHR occupancy
// every WithSampleInterval committed instructions, and WithProgress
// reports the committed instruction count at the same cadence.
func RunContext(ctx context.Context, cfg Config, wl Workload, pf Prefetcher, opts ...Option) (Result, error) {
	return sim.RunContext(ctx, cfg, wl, pf, opts...)
}

// WithProbe attaches p to a RunContext run.
func WithProbe(p Probe) Option { return sim.WithProbe(p) }

// WithSampleInterval sets the probe/progress sampling period in
// committed instructions (default sim.DefaultSampleInterval).
func WithSampleInterval(n uint64) Option { return sim.WithSampleInterval(n) }

// WithProgress attaches a progress callback invoked with the total
// committed instruction count every sample interval.
func WithProgress(fn func(instructions uint64)) Option { return sim.WithProgress(fn) }

// NewTimeSeries returns a TimeSeries probe with room for capacity
// samples before its backing array has to grow.
func NewTimeSeries(capacity int) *TimeSeries { return sim.NewTimeSeries(capacity) }

// Prefetchers returns the names of every registered prefetching scheme,
// evaluated roster first ("none" … "cbws+sms"), then the learned
// baselines ("pythia", "gaze"). Each name constructs via NewPrefetcher.
func Prefetchers() []string { return registry.Names() }

// NewPrefetcher constructs a registered scheme by name. Unknown names
// return an error listing the valid ones.
func NewPrefetcher(name string) (Prefetcher, error) { return registry.New(name) }

// NewCBWS builds the paper's CBWS prefetcher. A zero-value config uses
// the paper's parameters (16-line vectors, 4 steps, 16-entry table).
// For the registry-equivalent default configuration use
// NewPrefetcher("cbws"); NewCBWS remains for custom CBWSConfig values.
func NewCBWS(cfg CBWSConfig) *core.Prefetcher { return core.New(cfg) }

// Workloads returns all 30 benchmark emulations.
func Workloads() []WorkloadSpec { return workload.All() }

// MemoryIntensiveWorkloads returns the paper's Table IV group.
func MemoryIntensiveWorkloads() []WorkloadSpec { return workload.MemoryIntensive() }

// WorkloadByName looks up a benchmark emulation by its paper name
// (e.g. "stencil-default", "429.mcf-ref").
func WorkloadByName(name string) (WorkloadSpec, bool) { return workload.ByName(name) }
