package service

import (
	"bytes"
	"context"
	"encoding/json"
	"net/http"
	"net/http/httptest"
	"path/filepath"
	"testing"
	"time"

	apiv1 "cbws/api/v1"
	"cbws/internal/harness"
	"cbws/internal/sim"
)

// streamCellChunk is the chunk size BenchmarkStreamCell posts, the
// size cbwsbench streams in.
const streamCellChunk = 64 << 10

// BenchmarkStreamCell streams one golden cell's CBWT capture —
// stencil-default at the configuration golden/seed.json pins (400k
// instructions, 100k warmup) — into a service through its HTTP
// handler, with no sockets: open, 64 KiB chunks, close, until the
// stream is done. The stream buffer holds the whole trace plus one
// chunk, as cbwsbench sizes it, so no chunk is refused. B/op is the
// daemon's cost of one streamed cell: HTTP handling, decode, the byte
// queue and the simulation. The last stream's served record must match
// the manifest's stencil-default/none cell.
//
// It lives here rather than beside BenchmarkGoldenCell in the root
// package: linking net/http into the root test binary adds the runtime
// allocations net/netip's unique maps make after every GC to the gated
// per-cell allocs/op.
func BenchmarkStreamCell(b *testing.B) {
	const wl, pf = "stencil-default", "none"
	seed, err := harness.ReadGolden(filepath.Join("..", "..", "golden", "seed.json"))
	if err != nil {
		b.Fatal(err)
	}
	want := ""
	for _, c := range seed.Cells {
		if c.Workload == wl && c.Prefetcher == pf {
			want = c.Hash
		}
	}
	if want == "" {
		b.Fatalf("golden/seed.json has no %s/%s cell", wl, pf)
	}
	cfg := harness.DefaultOptions().Sim
	cfg.MaxInstructions = seed.Instructions
	cfg.WarmupInstructions = seed.Warmup
	data := encodeWorkloadTrace(b, wl, cfg.MaxInstructions)

	svc, err := New(Config{
		Workers:          1,
		BaseSim:          cfg,
		CodeVersion:      "bench",
		TenantRateBytes:  1 << 40,
		TenantBurstBytes: 1 << 30,
		// Every event takes at least two bytes.
		StreamBufferEvents: len(data)/2 + streamCellChunk/2 + 2,
	})
	if err != nil {
		b.Fatal(err)
	}
	defer func() {
		ctx, cancel := context.WithTimeout(context.Background(), time.Minute)
		defer cancel()
		if err := svc.Drain(ctx); err != nil {
			b.Error(err)
		}
	}()
	h := svc.Handler()
	post := func(path string, body []byte, code int) []byte {
		rec := httptest.NewRecorder()
		h.ServeHTTP(rec, httptest.NewRequest(http.MethodPost, path, bytes.NewReader(body)))
		if rec.Code != code {
			b.Fatalf("POST %s: %d %s, want %d", path, rec.Code, rec.Body.Bytes(), code)
		}
		return rec.Body.Bytes()
	}
	open := []byte(`{"tenant":"bench","workload":"` + wl + `","prefetcher":"` + pf + `"}`)
	var key string
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		var view StreamView
		if err := json.Unmarshal(post(apiv1.PathStreams, open, http.StatusCreated), &view); err != nil {
			b.Fatal(err)
		}
		chunks := apiv1.PathStreams + "/" + view.ID + "/chunks"
		for off := 0; off < len(data); off += streamCellChunk {
			post(chunks, data[off:min(off+streamCellChunk, len(data))], http.StatusOK)
		}
		post(apiv1.PathStreams+"/"+view.ID+"/close", nil, http.StatusOK)
		st, _ := svc.Stream(view.ID)
		<-st.Done()
		key = st.View().Key
	}
	b.StopTimer()
	raw, ok := svc.Result(key)
	if !ok {
		b.Fatalf("stream result %.12s not cached", key)
	}
	var rec harness.RunRecord
	if err := json.Unmarshal(raw, &rec); err != nil {
		b.Fatal(err)
	}
	if got := harness.CellHash(sim.Result{Workload: rec.Workload, Prefetcher: rec.Prefetcher, Metrics: rec.Metrics}); got != want {
		b.Fatalf("streamed %s/%s: cell hash %s, golden %s", wl, pf, got, want)
	}
}
