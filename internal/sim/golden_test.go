package sim

import (
	"math/rand/v2"
	"testing"

	"cbws/internal/core"
	"cbws/internal/prefetch"
	"cbws/internal/trace"
	"cbws/internal/workload"
)

// splitSink re-chunks every batch it receives into sub-batches whose
// lengths come from next (each in [1, len(rest)]) before forwarding
// them to down.
type splitSink struct {
	down trace.BatchSink
	next func(rest int) int
}

func (s *splitSink) ConsumeBatch(batch []trace.Event) bool {
	for i := 0; i < len(batch); {
		n := s.next(len(batch) - i)
		if !s.down.ConsumeBatch(batch[i : i+n]) {
			return false
		}
		i += n
	}
	return true
}

// splitGen delivers gen's stream through a splitSink, so everything
// downstream of the generator — the instruction limiter, warmup
// snapshot, engine and memory system — sees the re-chunked batches.
type splitGen struct {
	gen  trace.Generator
	next func(rest int) int
}

func (g splitGen) Name() string { return g.gen.Name() }

func (g splitGen) GenerateBatches(sink trace.BatchSink) {
	g.gen.GenerateBatches(&splitSink{down: sink, next: g.next})
}

// TestBatchedRunMatchesPerEventReference is the batch-boundary
// invariance check: timing semantics must not depend on where batch
// boundaries fall, so for a grid of workloads × prefetchers the same
// stream delivered as one-event batches and split at seeded random
// points must agree with the plain batched Run on every metric, bit for
// bit.
func TestBatchedRunMatchesPerEventReference(t *testing.T) {
	factories := map[string]func() prefetch.Prefetcher{
		"none":   func() prefetch.Prefetcher { return prefetch.NewNone() },
		"stride": func() prefetch.Prefetcher { return prefetch.NewStride(prefetch.StrideConfig{}) },
		"sms":    func() prefetch.Prefetcher { return prefetch.NewSMS(prefetch.SMSConfig{}) },
		"cbws":   func() prefetch.Prefetcher { return core.New(core.Config{}) },
		"cbws+sms": func() prefetch.Prefetcher {
			return core.NewComposite(core.New(core.Config{}), prefetch.NewSMS(prefetch.SMSConfig{}))
		},
	}
	cfg := DefaultConfig()
	cfg.MaxInstructions = 90_000
	cfg.WarmupInstructions = 25_000
	for _, wlName := range []string{"stencil-default", "histo-large", "462.libquantum-ref", "429.mcf-ref"} {
		spec, ok := workload.ByName(wlName)
		if !ok {
			t.Fatalf("workload %s missing", wlName)
		}
		for pfName, mk := range factories {
			batched, err := Run(cfg, spec.Make(), mk())
			if err != nil {
				t.Fatal(err)
			}
			rng := rand.New(rand.NewPCG(uint64(len(wlName)), uint64(len(pfName))))
			splits := map[string]func(rest int) int{
				"per-event": func(int) int { return 1 },
				"random":    func(rest int) int { return 1 + rng.IntN(rest) },
			}
			for splitName, next := range splits {
				ref, err := Run(cfg, splitGen{gen: spec.Make(), next: next}, mk())
				if err != nil {
					t.Fatal(err)
				}
				if batched.Metrics != ref.Metrics {
					t.Errorf("%s/%s: batched run diverges from %s delivery\n  batched: %+v\n  %s: %+v",
						wlName, pfName, splitName, batched.Metrics, splitName, ref.Metrics)
				}
			}
		}
	}
}
