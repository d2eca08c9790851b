package service

import (
	"encoding/json"
	"errors"
	"os"
	"path/filepath"
	"runtime"
	"strings"
	"sync/atomic"
	"testing"
	"time"

	"cbws/internal/harness"
	"cbws/internal/sim"
	"cbws/internal/stats"
)

// testRecord builds a minimal valid run record for workload ×
// prefetcher under code version code, and returns it with its encoding
// and the key it is cached under.
func testRecord(t *testing.T, workload, prefetcher, code string) (string, *harness.RunRecord, []byte) {
	t.Helper()
	m := stats.Metrics{Instructions: 1000, Cycles: 1500}
	rec := &harness.RunRecord{
		Schema:         harness.RunRecordSchemaVersion,
		Workload:       workload,
		Prefetcher:     prefetcher,
		CodeVersion:    code,
		GoVersion:      "go1.test",
		SampleInterval: 1000,
		Config:         testConfig().BaseSim,
		Metrics:        m,
		Samples:        []sim.SamplePoint{{Instructions: 1000, Cycles: 1500, Interval: m, Final: true}},
	}
	data, err := json.Marshal(rec)
	if err != nil {
		t.Fatal(err)
	}
	spec := JobSpec{Workload: workload, Prefetcher: prefetcher, Config: rec.Config}
	return spec.Key(code), rec, data
}

func TestCacheMemoryOnly(t *testing.T) {
	c, err := NewCache("")
	if err != nil {
		t.Fatal(err)
	}
	k, rec, data := testRecord(t, "w", "p", "test")
	if _, ok := c.Get(k); ok {
		t.Fatal("empty cache reported a hit")
	}
	if err := c.PutOnce(k, rec, data); err != nil {
		t.Fatal(err)
	}
	got, ok := c.Get(k)
	if !ok || string(got) != string(data) {
		t.Fatalf("Get after PutOnce: %q, %v", got, ok)
	}
	if w, p, ok := c.Names(k); !ok || w != "w" || p != "p" {
		t.Fatalf("Names: %q %q %v", w, p, ok)
	}
	// First write wins: a second writer is served the first bytes.
	if err := c.PutOnce(k, rec, []byte("later")); err != nil {
		t.Fatal(err)
	}
	if got, _ := c.Get(k); string(got) != string(data) {
		t.Fatalf("second PutOnce replaced the entry: %q", got)
	}
}

func TestCachePersistsAcrossReopen(t *testing.T) {
	dir := t.TempDir()
	c, err := NewCache(dir)
	if err != nil {
		t.Fatal(err)
	}
	k1, r1, d1 := testRecord(t, "w1", "p1", "test")
	k2, r2, d2 := testRecord(t, "w2", "p2", "test")
	if err := c.PutOnce(k1, r1, d1); err != nil {
		t.Fatal(err)
	}
	if err := c.PutOnce(k2, r2, d2); err != nil {
		t.Fatal(err)
	}

	re, err := NewCache(dir)
	if err != nil {
		t.Fatalf("reopen: %v", err)
	}
	if re.Len() != 2 || re.quarantined != 0 {
		t.Fatalf("reopened cache has %d entries, %d quarantined; want 2, 0", re.Len(), re.quarantined)
	}
	got, ok := re.Get(k1)
	if !ok || string(got) != string(d1) {
		t.Fatalf("reopened Get(k1): %q, %v", got, ok)
	}
	if w, p, ok := re.Names(k2); !ok || w != "w2" || p != "p2" {
		t.Fatalf("reopened Names(k2): %q %q %v", w, p, ok)
	}
}

// TestCacheQuarantinesBadFiles proves NewCache serves nothing it cannot
// verify: a torn file, an empty file and a valid record stored under
// another record's key are each set aside and counted.
func TestCacheQuarantinesBadFiles(t *testing.T) {
	dir := t.TempDir()
	kTorn, _, data := testRecord(t, "w1", "p1", "test")
	kEmpty, _, _ := testRecord(t, "w2", "p2", "test")
	kWrong, _, _ := testRecord(t, "w3", "p3", "test")
	files := map[string][]byte{
		kTorn:  data[:len(data)/2],
		kEmpty: nil,
		kWrong: data, // w1 × p1's record under w3 × p3's key
	}
	for k, b := range files {
		if err := os.WriteFile(filepath.Join(dir, k+".json"), b, 0o644); err != nil {
			t.Fatal(err)
		}
	}
	c, err := NewCache(dir)
	if err != nil {
		t.Fatal(err)
	}
	if c.Len() != 0 || c.quarantined != 3 {
		t.Fatalf("cache has %d entries, %d quarantined; want 0, 3", c.Len(), c.quarantined)
	}
	for k := range files {
		if _, ok := c.Get(k); ok {
			t.Errorf("bad file %.12s… served", k)
		}
		if _, err := os.Stat(filepath.Join(dir, k+".json")); !os.IsNotExist(err) {
			t.Errorf("bad file %.12s… left under its key name: %v", k, err)
		}
		if _, err := os.Stat(filepath.Join(dir, k+".json"+quarantineSuffix)); err != nil {
			t.Errorf("bad file %.12s… not kept aside: %v", k, err)
		}
	}
	// Set-aside files are not entries: a second open finds nothing to do.
	re, err := NewCache(dir)
	if err != nil {
		t.Fatal(err)
	}
	if re.Len() != 0 || re.quarantined != 0 {
		t.Fatalf("reopen: %d entries, %d quarantined; want 0, 0", re.Len(), re.quarantined)
	}
}

// TestCacheLoadsOtherCodeVersion checks a record from another build is
// verified against its own code version: it loads under its own key.
func TestCacheLoadsOtherCodeVersion(t *testing.T) {
	dir := t.TempDir()
	k, _, data := testRecord(t, "w", "p", "other-build")
	if err := os.WriteFile(filepath.Join(dir, k+".json"), data, 0o644); err != nil {
		t.Fatal(err)
	}
	c, err := NewCache(dir)
	if err != nil {
		t.Fatal(err)
	}
	if c.quarantined != 0 {
		t.Fatalf("other-version record quarantined")
	}
	if w, p, ok := c.Names(k); !ok || w != "w" || p != "p" {
		t.Fatalf("Names: %q %q %v", w, p, ok)
	}
}

// TestCacheFailedWriteNotServed checks a result whose file could not be
// written is taken back out of memory.
func TestCacheFailedWriteNotServed(t *testing.T) {
	dir := t.TempDir()
	c, err := NewCache(dir)
	if err != nil {
		t.Fatal(err)
	}
	if err := os.RemoveAll(dir); err != nil {
		t.Fatal(err)
	}
	k, rec, data := testRecord(t, "w", "p", "test")
	if err := c.PutOnce(k, rec, data); err == nil {
		t.Fatal("PutOnce into a removed directory succeeded")
	}
	if _, ok := c.Get(k); ok {
		t.Fatal("result served after its write failed")
	}
	if c.Len() != 0 {
		t.Fatalf("cache has %d entries after a failed write", c.Len())
	}
}

// TestCachePutOnceWaitsForInFlightWrite checks that a second PutOnce of
// a key whose first file write is still in flight neither serves nor
// reports the entry before that write settles: the entry stays hidden
// from Get and Names, the second call waits, and when the first write
// fails both calls report the failure.
func TestCachePutOnceWaitsForInFlightWrite(t *testing.T) {
	c, err := NewCache(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	k, rec, data := testRecord(t, "w", "p", "test")
	var writes atomic.Int32
	entered, fail := make(chan struct{}), make(chan struct{})
	c.write = func(dir, name string, data []byte) error {
		if writes.Add(1) == 1 {
			close(entered)
			<-fail
		}
		return errors.New("disk full")
	}
	first := make(chan error, 1)
	go func() { first <- c.PutOnce(k, rec, data) }()
	<-entered
	if _, ok := c.Get(k); ok {
		t.Error("Get served an entry whose write is in flight")
	}
	if _, _, ok := c.Names(k); ok {
		t.Error("Names reported an entry whose write is in flight")
	}

	// Fail the first write only once the second call waits on it.
	second := make(chan error, 1)
	go func() { second <- c.PutOnce(k, rec, data) }()
	deadline := time.Now().Add(30 * time.Second)
	for !parkedIn("(*Cache).PutOnce") {
		select {
		case err := <-second:
			t.Fatalf("second PutOnce returned %v while the first write was in flight", err)
		default:
		}
		if time.Now().After(deadline) {
			t.Fatal("second PutOnce never waited for the first write")
		}
		time.Sleep(time.Millisecond)
	}
	close(fail)
	if err := <-first; err == nil {
		t.Fatal("first PutOnce succeeded with a failing write")
	}
	if err := <-second; err == nil {
		t.Fatal("second PutOnce reported success for a key whose write failed")
	}
	if n := writes.Load(); n != 1 {
		t.Fatalf("%d file writes, want 1", n)
	}
	if _, ok := c.Get(k); ok || c.Len() != 0 {
		t.Fatalf("cache serves %d entries after the failed write", c.Len())
	}
}

// parkedIn reports whether some goroutine is blocked on a channel
// receive with fn as its innermost frame.
func parkedIn(fn string) bool {
	buf := make([]byte, 1<<20)
	buf = buf[:runtime.Stack(buf, true)]
	for _, g := range strings.Split(string(buf), "\n\n") {
		lines := strings.SplitN(g, "\n", 3)
		if len(lines) >= 2 && strings.Contains(lines[0], "[chan receive") && strings.Contains(lines[1], fn+"(") {
			return true
		}
	}
	return false
}

func TestCacheIgnoresForeignFiles(t *testing.T) {
	dir := t.TempDir()
	if err := os.WriteFile(filepath.Join(dir, "notes.txt"), []byte("x"), 0o644); err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(filepath.Join(dir, "short.json"), []byte("{}"), 0o644); err != nil {
		t.Fatal(err)
	}
	c, err := NewCache(dir)
	if err != nil {
		t.Fatal(err)
	}
	if c.Len() != 0 || c.quarantined != 0 {
		t.Fatalf("foreign files loaded or quarantined: %d, %d", c.Len(), c.quarantined)
	}
}

// TestCacheHitZeroAlloc pins the //cbws:hotpath contract on the
// cache-hit serving path: a Get must not allocate.
func TestCacheHitZeroAlloc(t *testing.T) {
	c, err := NewCache("")
	if err != nil {
		t.Fatal(err)
	}
	k, rec, data := testRecord(t, "w", "p", "test")
	if err := c.PutOnce(k, rec, data); err != nil {
		t.Fatal(err)
	}
	allocs := testing.AllocsPerRun(1000, func() {
		if _, ok := c.Get(k); !ok {
			t.Fatal("hit expected")
		}
	})
	if allocs != 0 {
		t.Fatalf("cache hit allocates: %v allocs/op", allocs)
	}
}
