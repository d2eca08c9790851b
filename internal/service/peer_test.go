package service

import (
	"bytes"
	"encoding/json"
	"fmt"
	"net/http"
	"net/http/httptest"
	"testing"

	"cbws/internal/harness"
	"cbws/internal/sim"
)

// submitAndWait drives one spec through a service's HTTP API to
// completion and returns (key, result bytes).
func submitAndWait(t *testing.T, url, body string) (string, []byte) {
	t.Helper()
	code, m, _ := postJob(t, url, body)
	if code != http.StatusOK && code != http.StatusAccepted {
		t.Fatalf("submit: %d %v", code, m)
	}
	key, _ := m["key"].(string)
	if view := waitDone(t, url, key); view["status"] != "done" {
		t.Fatalf("job %s: %v", key, view)
	}
	status, data := getJSON(t, url+"/v1/results/"+key)
	if status != http.StatusOK {
		t.Fatalf("result %s: %d %s", key, status, data)
	}
	return key, data
}

const peerJobBody = `{"workload":"stencil-default","prefetcher":"stride"}`

// TestPeerFetchServesSiblingResult is the federated-cache core: worker
// A computes a key, worker B (peered with A) is asked for the same
// spec and must serve A's exact bytes via peer-fetch without running a
// simulation of its own.
func TestPeerFetchServesSiblingResult(t *testing.T) {
	svcA, tsA := newTestService(t, testConfig())
	keyA, dataA := submitAndWait(t, tsA.URL, peerJobBody)
	if got := svcA.Counters().JobsSimulated; got != 1 {
		t.Fatalf("A simulated %d jobs, want 1", got)
	}

	cfgB := testConfig()
	cfgB.Peers = []string{tsA.URL}
	svcB, tsB := newTestService(t, cfgB)
	keyB, dataB := submitAndWait(t, tsB.URL, peerJobBody)

	if keyA != keyB {
		t.Fatalf("same spec keyed differently: %s vs %s", keyA, keyB)
	}
	if !bytes.Equal(dataA, dataB) {
		t.Fatalf("peer-fetched result differs from the origin bytes:\nA %d bytes\nB %d bytes", len(dataA), len(dataB))
	}
	vars := svcB.Counters()
	if vars.PeerHits != 1 {
		t.Fatalf("B peer_fetch_hits = %d, want 1", vars.PeerHits)
	}
	if vars.JobsSimulated != 0 {
		t.Fatalf("B simulated %d jobs, want 0 — the peer fetch should have served it", vars.JobsSimulated)
	}
	if vars.JobsDone != 1 {
		t.Fatalf("B jobs_done = %d, want 1", vars.JobsDone)
	}

	// The peer-fetched entry is now in B's own cache: a replay is a
	// plain local cache hit, no sibling traffic.
	probes := vars.PeerHits + vars.PeerMisses + vars.PeerErrors
	code, m, _ := postJob(t, tsB.URL, peerJobBody)
	if code != http.StatusOK || m["cached"] != true {
		t.Fatalf("replay on B: %d %v, want cached 200", code, m)
	}
	v2 := svcB.Counters()
	if got := v2.PeerHits + v2.PeerMisses + v2.PeerErrors; got != probes {
		t.Fatalf("replay touched the peers (%d probes, had %d)", got, probes)
	}
}

// cellHashOf reduces a served run record to its canonical cell hash —
// the identity golden manifests pin. Wall-clock telemetry in the
// record is excluded by construction, so two daemons computing the
// same key must agree on this hash exactly.
func cellHashOf(t *testing.T, data []byte) string {
	t.Helper()
	rec := &harness.RunRecord{}
	if err := json.Unmarshal(data, rec); err != nil {
		t.Fatal(err)
	}
	return harness.CellHash(sim.Result{Workload: rec.Workload, Prefetcher: rec.Prefetcher, Metrics: rec.Metrics})
}

// TestPeerFetchFailover kills the only peer and proves the worker
// falls back to recomputing the identical result (same key, same
// canonical cell hash; only wall-clock telemetry may differ). This is
// the cluster's failover story in miniature: a worker death costs at
// most a redundant simulation, never a wrong or missing result.
func TestPeerFetchFailover(t *testing.T) {
	_, tsA := newTestService(t, testConfig())
	keyA, dataA := submitAndWait(t, tsA.URL, peerJobBody)
	deadURL := tsA.URL
	tsA.Close() // worker A dies

	cfgB := testConfig()
	cfgB.Peers = []string{deadURL}
	svcB, tsB := newTestService(t, cfgB)
	keyB, dataB := submitAndWait(t, tsB.URL, peerJobBody)

	if keyA != keyB {
		t.Fatalf("keys diverged: %s vs %s", keyA, keyB)
	}
	if cellHashOf(t, dataA) != cellHashOf(t, dataB) {
		t.Fatal("recomputed result differs from the dead sibling's — determinism broken")
	}
	vars := svcB.Counters()
	if vars.PeerErrors == 0 {
		t.Fatal("dead peer never surfaced as peer_fetch_errors")
	}
	if vars.JobsSimulated != 1 {
		t.Fatalf("B simulated %d jobs, want 1 (local fallback)", vars.JobsSimulated)
	}
}

// TestPeerFetchMissFallsBack peers with a live sibling that does NOT
// have the key: the probe counts a miss and the worker simulates.
func TestPeerFetchMissFallsBack(t *testing.T) {
	_, tsA := newTestService(t, testConfig()) // empty cache

	cfgB := testConfig()
	cfgB.Peers = []string{tsA.URL}
	svcB, tsB := newTestService(t, cfgB)
	submitAndWait(t, tsB.URL, peerJobBody)

	vars := svcB.Counters()
	if vars.PeerMisses != 1 || vars.PeerHits != 0 {
		t.Fatalf("peer counters hits=%d misses=%d, want 0/1", vars.PeerHits, vars.PeerMisses)
	}
	if vars.JobsSimulated != 1 {
		t.Fatalf("B simulated %d jobs, want 1", vars.JobsSimulated)
	}
}

// TestPeerFetchRejectsInvalidBody proves a sibling serving garbage for
// the right key cannot poison the local cache: the body is rejected,
// the error counted, and the job simulated locally.
func TestPeerFetchRejectsInvalidBody(t *testing.T) {
	evil := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		w.Header().Set("Content-Type", "application/json")
		fmt.Fprint(w, `{"not":"a run record"}`)
	}))
	defer evil.Close()

	cfg := testConfig()
	cfg.Peers = []string{evil.URL}
	svc, ts := newTestService(t, cfg)
	_, data := submitAndWait(t, ts.URL, peerJobBody)
	if len(data) == 0 || bytes.Contains(data, []byte("not")) {
		t.Fatal("evil peer body reached the cache")
	}
	vars := svc.Counters()
	if vars.PeerErrors != 1 {
		t.Fatalf("peer_fetch_errors = %d, want 1", vars.PeerErrors)
	}
	if vars.JobsSimulated != 1 {
		t.Fatalf("simulated %d, want 1 — garbage must fall back to computing", vars.JobsSimulated)
	}
}

// TestPeerConfigRejectsDuplicates checks a malformed fleet config
// fails construction instead of skewing the ring.
func TestPeerConfigRejectsDuplicates(t *testing.T) {
	cfg := testConfig()
	cfg.Peers = []string{"http://x:1", "http://x:1"}
	if _, err := New(cfg); err == nil {
		t.Fatal("duplicate peers accepted")
	}
}

// TestPeerFetchRejectsForeignConfig proves a sibling serving a valid
// record with the right names but another configuration's results
// cannot poison the local cache: the record is rejected and counted,
// the job is simulated locally, and the cached record carries the
// job's own config.
func TestPeerFetchRejectsForeignConfig(t *testing.T) {
	_, tsA := newTestService(t, testConfig())
	_, dataA := submitAndWait(t, tsA.URL, peerJobBody)
	foreign := &harness.RunRecord{}
	if err := json.Unmarshal(dataA, foreign); err != nil {
		t.Fatal(err)
	}
	want := foreign.Config
	foreign.Config.MaxInstructions++
	if err := foreign.Validate(); err != nil {
		t.Fatalf("the foreign record must pass schema validation: %v", err)
	}
	body, err := json.Marshal(foreign)
	if err != nil {
		t.Fatal(err)
	}
	liar := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		w.Header().Set("Content-Type", "application/json")
		w.Write(body)
	}))
	defer liar.Close()

	cfg := testConfig()
	cfg.Peers = []string{liar.URL}
	svc, ts := newTestService(t, cfg)
	_, data := submitAndWait(t, ts.URL, peerJobBody)
	vars := svc.Counters()
	if vars.PeerErrors != 1 || vars.PeerHits != 0 {
		t.Fatalf("peer counters errors=%d hits=%d, want 1/0", vars.PeerErrors, vars.PeerHits)
	}
	if vars.JobsSimulated != 1 {
		t.Fatalf("simulated %d, want 1 — a foreign config must fall back to computing", vars.JobsSimulated)
	}
	got := &harness.RunRecord{}
	if err := json.Unmarshal(data, got); err != nil {
		t.Fatal(err)
	}
	if got.Config != want {
		t.Fatalf("cached record carries config %+v, want the job's %+v", got.Config, want)
	}
}
