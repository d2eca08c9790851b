package service

import (
	"encoding/json"
	"fmt"
	"net/http"
	"path/filepath"
	"strings"
	"testing"

	"cbws/internal/harness"
	"cbws/internal/trace/corpus"
	"cbws/internal/workload"
)

// corpusDirFor packs the first max instructions of the named workloads
// into a fresh directory and opens it as a source.
func corpusDirFor(t *testing.T, max uint64, names ...string) *harness.CorpusSource {
	t.Helper()
	dir := t.TempDir()
	for _, name := range names {
		spec, ok := workload.ByName(name)
		if !ok {
			t.Fatalf("workload %q missing", name)
		}
		path := filepath.Join(dir, strings.ReplaceAll(name, "/", "_")+".cbwc")
		if _, err := corpus.Pack(path, spec.Make(), max, corpus.Options{}); err != nil {
			t.Fatal(err)
		}
	}
	src, err := harness.OpenCorpusDir(dir)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { src.Close() })
	return src
}

// TestCorpusBackedJob runs a job against a corpus-backed daemon and
// checks the three corpus contracts: the job key absorbs the corpus
// content address, the result is bit-identical to a live-generator run
// of the same cell, and hash-pinned submissions are honored or rejected
// with 409.
func TestCorpusBackedJob(t *testing.T) {
	src := corpusDirFor(t, testConfig().BaseSim.MaxInstructions, "stencil-default")
	cfg := testConfig()
	cfg.Corpus = src
	svc, ts := newTestService(t, cfg)

	body := `{"workload":"stencil-default","prefetcher":"cbws"}`
	code, m, _ := postJob(t, ts.URL, body)
	if code != http.StatusAccepted {
		t.Fatalf("submit: %d %v", code, m)
	}
	key := m["key"].(string)

	// The key must differ from the same submission keyed without a
	// corpus: the corpus bytes are part of the job identity.
	plain := JobSpec{Workload: "stencil-default", Prefetcher: "cbws", Config: cfg.BaseSim}
	if key == plain.Key(svc.CodeVersion()) {
		t.Fatal("corpus-backed job keyed identically to a generator-backed job")
	}
	hash, _ := src.Hash("stencil-default")
	withHash := plain
	withHash.WorkloadHash = hash
	if key != withHash.Key(svc.CodeVersion()) {
		t.Fatal("job key does not match the spec stamped with the corpus hash")
	}

	final := waitDone(t, ts.URL, key)
	if final["status"] != string(StatusDone) {
		t.Fatalf("job did not complete: %v", final)
	}

	// Replayed simulation must be bit-identical to the live generator.
	spec, _ := workload.ByName("stencil-default")
	f, _ := harness.FactoryByName("cbws")
	direct, err := harness.NewMatrix(harness.Options{Sim: cfg.BaseSim}).Get(spec, f)
	if err != nil {
		t.Fatal(err)
	}
	view, err := svc.Submit(JobSpec{Workload: "stencil-default", Prefetcher: "cbws", Config: cfg.BaseSim})
	if err != nil || view.Status != StatusDone {
		t.Fatalf("resubmit: %v %v", view, err)
	}
	raw, ok := svc.Result(key)
	if !ok {
		t.Fatal("result missing")
	}
	var rec harness.RunRecord
	if err := json.Unmarshal(raw, &rec); err != nil {
		t.Fatal(err)
	}
	if rec.Metrics != direct.Metrics {
		t.Fatalf("corpus-backed metrics diverge from live run:\n got %+v\nwant %+v", rec.Metrics, direct.Metrics)
	}

	// Pinning the exact corpus hash is accepted (and hits the cache).
	code, m, _ = postJob(t, ts.URL, fmt.Sprintf(
		`{"workload":"stencil-default","prefetcher":"cbws","workload_hash":%q}`, hash))
	if code != http.StatusOK || m["cached"] != true {
		t.Fatalf("hash-pinned resubmit: %d %v", code, m)
	}

	// A wrong pin is a 409, not a silent run over different bytes.
	wrong := strings.Repeat("0", 64)
	code, m, _ = postJob(t, ts.URL, fmt.Sprintf(
		`{"workload":"stencil-default","prefetcher":"cbws","workload_hash":%q}`, wrong))
	if code != http.StatusConflict {
		t.Fatalf("wrong hash pin: %d %v", code, m)
	}

	// Pinning a hash for a workload this daemon has no corpus for is
	// also a 409.
	code, m, _ = postJob(t, ts.URL, fmt.Sprintf(
		`{"workload":"429.mcf-ref","prefetcher":"cbws","workload_hash":%q}`, hash))
	if code != http.StatusConflict {
		t.Fatalf("pin without corpus: %d %v", code, m)
	}

	// A workload without a corpus still runs from its generator.
	code, m, _ = postJob(t, ts.URL, `{"workload":"429.mcf-ref","prefetcher":"none"}`)
	if code != http.StatusAccepted {
		t.Fatalf("generator-backed submit: %d %v", code, m)
	}
	if final := waitDone(t, ts.URL, m["key"].(string)); final["status"] != string(StatusDone) {
		t.Fatalf("generator-backed job: %v", final)
	}
}

// TestCorpusResultMatchesLiveService pins result equality end to end:
// the run record served by a corpus-backed daemon equals the record a
// corpus-less daemon computes for the same job, field for field, except
// the workload hash that keys it.
func TestCorpusResultMatchesLiveService(t *testing.T) {
	cfgLive := testConfig()
	svcLive, tsLive := newTestService(t, cfgLive)

	src := corpusDirFor(t, testConfig().BaseSim.MaxInstructions, "stencil-default")
	cfgCorp := testConfig()
	cfgCorp.Corpus = src
	svcCorp, tsCorp := newTestService(t, cfgCorp)

	body := `{"workload":"stencil-default","prefetcher":"sms"}`
	_, mLive, _ := postJob(t, tsLive.URL, body)
	_, mCorp, _ := postJob(t, tsCorp.URL, body)
	keyLive := mLive["key"].(string)
	keyCorp := mCorp["key"].(string)
	waitDone(t, tsLive.URL, keyLive)
	waitDone(t, tsCorp.URL, keyCorp)

	rawLive, _ := svcLive.Result(keyLive)
	rawCorp, _ := svcCorp.Result(keyCorp)
	if len(rawLive) == 0 || len(rawCorp) == 0 {
		t.Fatal("missing results")
	}
	// The corpus record carries the corpus content address its key was
	// built from; the live record, keyed without one, carries none.
	wantHash, _ := src.Hash("stencil-default")
	if !strings.Contains(string(rawCorp), `"workload_hash": "`+wantHash+`"`) ||
		strings.Contains(string(rawLive), "workload_hash") {
		t.Fatalf("workload_hash: corpus record should carry %.12s…, live record none", wantHash)
	}
	// Otherwise identical run records (wall-clock telemetry aside).
	stripDur := func(s []byte) string {
		var out []string
		for _, line := range strings.Split(string(s), "\n") {
			if strings.Contains(line, "wall_time_sec") || strings.Contains(line, "workload_hash") {
				continue
			}
			out = append(out, line)
		}
		return strings.Join(out, "\n")
	}
	if stripDur(rawLive) != stripDur(rawCorp) {
		t.Fatalf("corpus-backed record diverges from live record:\n--- live ---\n%s\n--- corpus ---\n%s",
			rawLive, rawCorp)
	}
}

// TestCorpusBudgetPastEnd checks a corpus-backed job cannot run past
// the end of its corpus: a budget beyond the corpus's instructions is a
// 409 that leaves no job and caches nothing, while a budget the corpus
// covers still runs.
func TestCorpusBudgetPastEnd(t *testing.T) {
	const corpusInstr = 400_000
	src := corpusDirFor(t, corpusInstr, "stencil-default")
	cfg := testConfig()
	cfg.Corpus = src
	svc, ts := newTestService(t, cfg)

	over := JobSpec{Workload: "stencil-default", Prefetcher: "cbws", Config: cfg.BaseSim}
	over.Config.MaxInstructions = corpusInstr + 1
	over.WorkloadHash, _ = src.Hash("stencil-default")
	code, m, _ := postJob(t, ts.URL, fmt.Sprintf(
		`{"workload":"stencil-default","prefetcher":"cbws","config":{"MaxInstructions":%d}}`, corpusInstr+1))
	if code != http.StatusConflict {
		t.Fatalf("budget past the corpus end: %d %v", code, m)
	}
	if _, ok := svc.Job(over.Key(svc.CodeVersion())); ok {
		t.Fatal("rejected job left an entry in the job table")
	}
	if n := svc.Cache().Len(); n != 0 {
		t.Fatalf("rejected job cached %d results", n)
	}

	code, m, _ = postJob(t, ts.URL, fmt.Sprintf(
		`{"workload":"stencil-default","prefetcher":"cbws","config":{"MaxInstructions":%d}}`, corpusInstr))
	if code != http.StatusAccepted {
		t.Fatalf("budget equal to the corpus: %d %v", code, m)
	}
	if final := waitDone(t, ts.URL, m["key"].(string)); final["status"] != string(StatusDone) {
		t.Fatalf("job within the corpus: %v", final)
	}
	if n := svc.Cache().Len(); n != 1 {
		t.Fatalf("cache holds %d results, want 1", n)
	}
}
