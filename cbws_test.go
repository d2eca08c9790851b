package cbws_test

import (
	"context"
	"errors"
	"testing"

	"cbws"
)

func TestFacadeQuickstart(t *testing.T) {
	cfg := cbws.DefaultConfig()
	cfg.MaxInstructions = 200_000
	cfg.WarmupInstructions = 50_000

	wl, ok := cbws.WorkloadByName("stencil-default")
	if !ok {
		t.Fatal("stencil workload missing")
	}
	pf, err := cbws.NewPrefetcher("cbws+sms")
	if err != nil {
		t.Fatal(err)
	}
	res, err := cbws.Run(cfg, wl.Make(), pf)
	if err != nil {
		t.Fatal(err)
	}
	if res.Prefetcher != "cbws+sms" || res.Metrics.IPC() <= 0 {
		t.Errorf("result: %+v", res)
	}
}

// TestFacadePrefetcherConstructors checks the paper's evaluated roster
// constructs by name, and that NewCBWS with a zero config is the
// registry's "cbws".
func TestFacadePrefetcherConstructors(t *testing.T) {
	for _, name := range []string{"none", "stride", "ghb-pc/dc", "ghb-g/dc", "sms", "cbws", "cbws+sms"} {
		p, err := cbws.NewPrefetcher(name)
		if err != nil {
			t.Fatalf("NewPrefetcher(%q): %v", name, err)
		}
		if p.Name() != name {
			t.Errorf("NewPrefetcher(%q) builds %q", name, p.Name())
		}
	}
	reg, _ := cbws.NewPrefetcher("cbws")
	if p := cbws.NewCBWS(cbws.CBWSConfig{}); p.Name() != reg.Name() || p.StorageBits() != reg.StorageBits() {
		t.Errorf("NewCBWS(zero) builds %q (%d bits), registry cbws %q (%d bits)",
			p.Name(), p.StorageBits(), reg.Name(), reg.StorageBits())
	}
}

func TestFacadeWorkloadRosters(t *testing.T) {
	if len(cbws.Workloads()) != 30 {
		t.Errorf("workloads = %d", len(cbws.Workloads()))
	}
	if len(cbws.MemoryIntensiveWorkloads()) != 15 {
		t.Errorf("MI workloads = %d", len(cbws.MemoryIntensiveWorkloads()))
	}
	if _, ok := cbws.WorkloadByName("429.mcf-ref"); !ok {
		t.Error("mcf missing")
	}
	if _, ok := cbws.WorkloadByName("nope"); ok {
		t.Error("bogus lookup succeeded")
	}
}

func TestFacadeCBWSStorageBudget(t *testing.T) {
	p := cbws.NewCBWS(cbws.CBWSConfig{})
	if bits := p.StorageBits(); bits >= 8*1024 {
		t.Errorf("CBWS storage = %d bits, must stay under 1KB", bits)
	}
}

func TestFacadeRegistry(t *testing.T) {
	names := cbws.Prefetchers()
	if len(names) < 7 {
		t.Fatalf("Prefetchers() lists %d schemes, want at least the evaluated 7", len(names))
	}
	for _, name := range names {
		p, err := cbws.NewPrefetcher(name)
		if err != nil {
			t.Fatalf("NewPrefetcher(%q): %v", name, err)
		}
		if p.Name() != name {
			t.Errorf("NewPrefetcher(%q) builds %q", name, p.Name())
		}
	}
	if _, err := cbws.NewPrefetcher("bogus"); err == nil {
		t.Error("NewPrefetcher(bogus) should fail")
	}
}

func TestFacadeRunContextWithProbe(t *testing.T) {
	cfg := cbws.DefaultConfig()
	cfg.MaxInstructions = 200_000
	cfg.WarmupInstructions = 50_000

	wl, _ := cbws.WorkloadByName("stencil-default")
	pf, err := cbws.NewPrefetcher("cbws+sms")
	if err != nil {
		t.Fatal(err)
	}
	series := cbws.NewTimeSeries(8)
	res, err := cbws.RunContext(context.Background(), cfg, wl.Make(), pf,
		cbws.WithProbe(series), cbws.WithSampleInterval(50_000))
	if err != nil {
		t.Fatal(err)
	}
	final, ok := series.Final()
	if !ok {
		t.Fatal("no final sample")
	}
	if final != res.Metrics {
		t.Errorf("probe final snapshot diverges from Result.Metrics")
	}
	if series.Len() == 0 {
		t.Error("empty series")
	}
}

func TestFacadeRunContextCancelled(t *testing.T) {
	cfg := cbws.DefaultConfig()
	cfg.MaxInstructions = 200_000
	wl, _ := cbws.WorkloadByName("stencil-default")
	pf, _ := cbws.NewPrefetcher("none")
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	if _, err := cbws.RunContext(ctx, cfg, wl.Make(), pf); !errors.Is(err, context.Canceled) {
		t.Fatalf("err = %v, want context.Canceled", err)
	}
}
