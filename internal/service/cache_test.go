package service

import (
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"
	"runtime"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"cbws/internal/harness"
	"cbws/internal/registry"
	"cbws/internal/sim"
	"cbws/internal/stats"
	"cbws/internal/workload"
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
	if re.Len() != 2 || re.Quarantined() != 0 {
		t.Fatalf("reopened cache has %d entries, %d quarantined; want 2, 0", re.Len(), re.Quarantined())
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
	if c.Len() != 0 || c.Quarantined() != 3 {
		t.Fatalf("cache has %d entries, %d quarantined; want 0, 3", c.Len(), c.Quarantined())
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
	if re.Len() != 0 || re.Quarantined() != 0 {
		t.Fatalf("reopen: %d entries, %d quarantined; want 0, 0", re.Len(), re.Quarantined())
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
	if c.Quarantined() != 0 {
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

// cachePrimitives are the steps of the cache's atomic write, in order:
// the fault schedules below stop a write at each.
var cachePrimitives = []string{"create-temp", "write", "sync", "close", "rename", "sync-dir"}

// errInjected is the error a faultFS primitive returns.
var errInjected = errors.New("injected fault")

// faultFS wraps a store and stops the first write at the primitive at:
// the first time that primitive runs it signals hit, waits for release,
// and fails. With crash set the process is taken to die there: the
// primitive is not applied (a write leaves half its bytes, as a torn
// write would) and every later operation is dropped, so the store keeps
// exactly what a crash at that point leaves on disk.
type faultFS struct {
	cacheFS
	at    string
	crash bool

	hit, release chan struct{}
	temps        atomic.Int32 // CreateTemp calls: one per file write

	mu   sync.Mutex
	down bool //cbws:guardedby mu — crashed: every operation is dropped
}

func newFaultFS(inner cacheFS, at string, crash bool) *faultFS {
	return &faultFS{cacheFS: inner, at: at, crash: crash, hit: make(chan struct{}), release: make(chan struct{})}
}

// step gates primitive op: it returns nil when op proceeds, errInjected
// when op is the fault or comes after a crash. before runs ahead of a
// crash, for the part of op a crash still lets through.
func (f *faultFS) step(op string, before func()) error {
	f.mu.Lock()
	down := f.down
	f.mu.Unlock()
	if down {
		return errInjected
	}
	if op != f.at {
		return nil
	}
	close(f.hit)
	<-f.release
	if f.crash {
		if before != nil {
			before()
		}
		f.mu.Lock()
		f.down = true
		f.mu.Unlock()
	}
	return fmt.Errorf("%s: %w", op, errInjected)
}

func (f *faultFS) CreateTemp(pattern string) (cacheFile, error) {
	f.temps.Add(1)
	if err := f.step("create-temp", nil); err != nil {
		return nil, err
	}
	file, err := f.cacheFS.CreateTemp(pattern)
	if err != nil {
		return nil, err
	}
	return &faultFile{cacheFile: file, fs: f}, nil
}

func (f *faultFS) Rename(oldname, newname string) error {
	if err := f.step("rename", nil); err != nil {
		return err
	}
	return f.cacheFS.Rename(oldname, newname)
}

func (f *faultFS) SyncDir() error {
	if err := f.step("sync-dir", nil); err != nil {
		return err
	}
	return f.cacheFS.SyncDir()
}

func (f *faultFS) Remove(name string) error {
	if err := f.step("remove", nil); err != nil {
		return err
	}
	return f.cacheFS.Remove(name)
}

// faultFile gates a temp file's primitives through its faultFS.
type faultFile struct {
	cacheFile
	fs *faultFS
}

func (f *faultFile) Write(p []byte) (int, error) {
	if err := f.fs.step("write", func() { _, _ = f.cacheFile.Write(p[:len(p)/2]) }); err != nil {
		return 0, err
	}
	return f.cacheFile.Write(p)
}

func (f *faultFile) Sync() error {
	if err := f.fs.step("sync", nil); err != nil {
		return err
	}
	return f.cacheFile.Sync()
}

// Close always releases the descriptor, as the kernel does for a
// process that dies.
func (f *faultFile) Close() error {
	err := f.fs.step("close", nil)
	if cerr := f.cacheFile.Close(); err == nil {
		err = cerr
	}
	return err
}

// TestCachePutOnceWaitsForInFlightWrite runs the cache's fault
// schedules: for each primitive of the atomic write, a store that fails
// there and a store that crashes there. In each, a second PutOnce of a
// key whose first write is still in flight neither serves nor reports
// the entry before that write settles: the entry stays hidden from Get
// and Names, the second call waits, and both calls report the first
// write's error. Nothing is served afterwards, and a cache reopened
// over what the directory kept serves the whole record or nothing.
func TestCachePutOnceWaitsForInFlightWrite(t *testing.T) {
	for _, crash := range []bool{false, true} {
		for _, at := range cachePrimitives {
			name := "fail/" + at
			if crash {
				name = "crash/" + at
			}
			t.Run(name, func(t *testing.T) { testWriteFault(t, at, crash) })
		}
	}
}

func testWriteFault(t *testing.T, at string, crash bool) {
	dir := t.TempDir()
	store := newFaultFS(osFS{dir: dir}, at, crash)
	c, err := openCache(store)
	if err != nil {
		t.Fatal(err)
	}
	k, rec, data := testRecord(t, "w", "p", "test")
	first := make(chan error, 1)
	go func() { first <- c.PutOnce(k, rec, data) }()
	<-store.hit
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
	close(store.release)
	err1, err2 := <-first, <-second
	if !errors.Is(err1, errInjected) {
		t.Fatalf("first PutOnce: %v, want the injected %s fault", err1, at)
	}
	if err2 != err1 {
		t.Fatalf("second PutOnce reported %v, want the first write's %v", err2, err1)
	}
	if n := store.temps.Load(); n != 1 {
		t.Fatalf("%d file writes, want 1", n)
	}
	if _, ok := c.Get(k); ok || c.Len() != 0 {
		t.Fatalf("cache serves %d entries after the failed write", c.Len())
	}

	re, err := NewCache(dir)
	if err != nil {
		t.Fatal(err)
	}
	if re.Quarantined() != 0 {
		t.Errorf("reopen quarantined %d files: a torn record reached its key name", re.Quarantined())
	}
	switch got, ok := re.Get(k); {
	case ok && string(got) != string(data):
		t.Errorf("reopen serves a torn record: %d of %d bytes", len(got), len(data))
	case !ok && re.Len() != 0:
		t.Errorf("reopen indexes %d entries but serves none", re.Len())
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
	if c.Len() != 0 || c.Quarantined() != 0 {
		t.Fatalf("foreign files loaded or quarantined: %d, %d", c.Len(), c.Quarantined())
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

// goldenRecord simulates stencil-default/none at the configuration
// golden/seed.json pins, as a daemon would: its run record (~5 KB
// encoded) is the size service-cold stores per cell.
func goldenRecord(tb testing.TB) *harness.RunRecord {
	tb.Helper()
	cfg, want := goldenCell(tb, "stencil-default", "none")
	spec, _ := workload.ByName("stencil-default")
	f, err := registry.Resolve("none")
	if err != nil {
		tb.Fatal(err)
	}
	ts := sim.NewTimeSeries(int(cfg.MaxInstructions/sim.DefaultSampleInterval) + 2)
	res, err := sim.RunContext(context.Background(), cfg, spec.Make(), f.New(), sim.WithProbe(ts))
	if err != nil {
		tb.Fatal(err)
	}
	if got := harness.CellHash(res); got != want {
		tb.Fatalf("stencil-default/none: cell hash %s, golden %s", got, want)
	}
	rec := harness.NewRunRecord(cfg, res, sim.DefaultSampleInterval, ts.Points(), time.Second)
	rec.CodeVersion = "test"
	return rec
}

// numberedRecord returns record i of a family of distinct valid records
// built from base: each has its own code version, so its own key, and
// its own copies of the names, as a daemon's records decoded from
// separate requests do.
func numberedRecord(tb testing.TB, base *harness.RunRecord, i int) (string, *harness.RunRecord, []byte) {
	tb.Helper()
	rec := *base
	rec.Workload, rec.Prefetcher = strings.Clone(base.Workload), strings.Clone(base.Prefetcher)
	rec.CodeVersion = fmt.Sprintf("test-%05d", i)
	data, err := json.MarshalIndent(&rec, "", "  ")
	if err != nil {
		tb.Fatal(err)
	}
	spec := JobSpec{Workload: rec.Workload, Prefetcher: rec.Prefetcher, Config: rec.Config}
	return spec.Key(rec.CodeVersion), &rec, append(data, '\n')
}

// liveHeap returns the live heap after two collections: the first moves
// what sync.Pools hold into their victim caches, the second frees it.
func liveHeap() int64 {
	runtime.GC()
	runtime.GC()
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	return int64(ms.HeapAlloc)
}

// TestDiskCacheHoldsNoRecordBytes pins what a disk cache keeps in the
// heap per record: its index entry, not its bytes. 2,000 real records
// are stored with PutOnce, then the directory is reopened with
// NewCache; in both phases the live heap may grow by at most 512 B per
// record, a tenth of one record's encoding.
func TestDiskCacheHoldsNoRecordBytes(t *testing.T) {
	const records, perRecord = 2000, 512
	base := goldenRecord(t)
	dir := t.TempDir()
	c, err := NewCache(dir)
	if err != nil {
		t.Fatal(err)
	}
	before := liveHeap()
	size := 0
	for i := range records {
		k, rec, data := numberedRecord(t, base, i)
		size = len(data)
		if err := c.PutOnce(k, rec, data); err != nil {
			t.Fatal(err)
		}
	}
	per := (liveHeap() - before) / records
	t.Logf("PutOnce: %d heap bytes per %d-byte record", per, size)
	if per > perRecord {
		t.Errorf("PutOnce keeps %d heap bytes per %d-byte record, want ≤ %d", per, size, perRecord)
	}

	before = liveHeap()
	re, err := NewCache(dir)
	if err != nil {
		t.Fatal(err)
	}
	per = (liveHeap() - before) / records
	t.Logf("NewCache: %d heap bytes per record", per)
	if per > perRecord {
		t.Errorf("NewCache keeps %d heap bytes per %d-byte record, want ≤ %d", per, size, perRecord)
	}
	if re.Len() != records || re.Quarantined() != 0 {
		t.Fatalf("reopened %d records, %d quarantined; want %d, 0", re.Len(), re.Quarantined(), records)
	}
	k, _, _ := numberedRecord(t, base, records-1)
	got, ok := re.Get(k)
	want, _ := c.Get(k)
	if !ok || string(got) != string(want) {
		t.Fatalf("reopened cache serves %d bytes for the last record, want its %d", len(got), len(want))
	}
	runtime.KeepAlive(c)
}

// TestGetQuarantinesRecordChangedAfterLoad corrupts a record file after
// it was verified and indexed, both in a restarted daemon and in the
// daemon that computed it, whose job table still holds the done job:
// the next read misses, sets the file aside as .quarantined and counts
// it, the key is unknown again, and a resubmission simulates the cell
// again and serves its golden bytes.
func TestGetQuarantinesRecordChangedAfterLoad(t *testing.T) {
	for _, restart := range []bool{true, false} {
		name := "same-daemon"
		if restart {
			name = "restarted"
		}
		t.Run(name, func(t *testing.T) { testGetQuarantines(t, restart) })
	}
}

func testGetQuarantines(t *testing.T, restart bool) {
	const wl, pf = "stencil-default", "none"
	simCfg, want := goldenCell(t, wl, pf)
	cfg := testConfig()
	cfg.BaseSim = simCfg
	cfg.CacheDir = t.TempDir()
	svc, _ := newTestService(t, cfg)
	view, err := svc.Submit(mustSpec(t, svc, wl, pf))
	if err != nil {
		t.Fatal(err)
	}
	waitStatus(t, svc, view.Key, StatusDone)
	simulated := int64(1) // by the daemon that computed the record
	if restart {
		svc, _ = newTestService(t, cfg)
		simulated = 0
		if _, _, ok := svc.Cache().Names(view.Key); !ok {
			t.Fatal("restart did not index the record")
		}
	}
	path := filepath.Join(cfg.CacheDir, view.Key+".json")
	raw, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	// Same length, one digit changed: still a valid record, not the
	// bytes that were verified.
	i := strings.Index(string(raw), `"cycles": `) + len(`"cycles": `)
	raw[i] = '1' + (raw[i]-'0')%9
	if err := os.WriteFile(path, raw, 0o644); err != nil {
		t.Fatal(err)
	}

	if _, ok := svc.Result(view.Key); ok {
		t.Fatal("a record changed after load was served")
	}
	if _, err := os.Stat(path + quarantineSuffix); err != nil {
		t.Errorf("changed record not set aside: %v", err)
	}
	if _, err := os.Stat(path); !os.IsNotExist(err) {
		t.Errorf("changed record left under its key name: %v", err)
	}
	if n := svc.Counters().Quarantined; n != 1 {
		t.Errorf("cache_quarantined %d, want 1", n)
	}
	if _, ok := svc.Status(view.Key); ok {
		t.Error("Status still reports the dropped record")
	}

	again, err := svc.Submit(mustSpec(t, svc, wl, pf))
	if err != nil {
		t.Fatal(err)
	}
	if again.Key != view.Key || again.Cached || again.Status == StatusDone {
		t.Fatalf("resubmission: %+v, want a fresh job for %.12s", again, view.Key)
	}
	waitStatus(t, svc, view.Key, StatusDone)
	if n := svc.Counters().JobsSimulated; n != simulated+1 {
		t.Errorf("jobs_simulated %d, want %d", n, simulated+1)
	}
	got, ok := svc.Result(view.Key)
	if !ok {
		t.Fatal("resimulated record not served")
	}
	if h := recordCellHash(t, got); h != want {
		t.Fatalf("resimulated %s/%s: cell hash %s, golden %s", wl, pf, h, want)
	}
}

// flakyReadFS fails the next fails reads of its store, as a daemon out
// of file descriptors would.
type flakyReadFS struct {
	cacheFS
	fails atomic.Int32
}

var errFlakyRead = errors.New("too many open files")

func (f *flakyReadFS) ReadFile(name string) ([]byte, error) {
	if f.fails.Add(-1) >= 0 {
		return nil, &os.PathError{Op: "open", Path: name, Err: errFlakyRead}
	}
	return f.cacheFS.ReadFile(name)
}

// TestGetReadErrorLeavesRecord separates a read that fails from bytes
// that fail the hash. A read error on an intact record is a miss that
// quarantines nothing and keeps the entry, which the HTTP API answers
// with a retryable 503, and the next read serves the record. A file
// that has vanished drops the entry without counting a quarantine, so
// the key is simulated again.
func TestGetReadErrorLeavesRecord(t *testing.T) {
	cfg := testConfig()
	cfg.CacheDir = t.TempDir()
	svc, ts := newTestService(t, cfg)
	k, rec, data := testRecord(t, "w", "p", "test")
	if err := svc.cache.PutOnce(k, rec, data); err != nil {
		t.Fatal(err)
	}
	flaky := &flakyReadFS{cacheFS: svc.cache.store}
	svc.cache.store = flaky // nothing else reads the store yet
	flaky.fails.Store(1)

	if code, body := getJSON(t, ts.URL+"/v1/results/"+k); code != http.StatusServiceUnavailable {
		t.Fatalf("unreadable record: %d %s, want 503", code, body)
	}
	path := filepath.Join(cfg.CacheDir, k+".json")
	if _, err := os.Stat(path); err != nil {
		t.Fatalf("unreadable record moved: %v", err)
	}
	if n, l := svc.cache.Quarantined(), svc.cache.Len(); n != 0 || l != 1 {
		t.Fatalf("%d quarantined, %d entries after a read error; want 0, 1", n, l)
	}
	if code, body := getJSON(t, ts.URL+"/v1/results/"+k); code != http.StatusOK || string(body) != string(data) {
		t.Fatalf("retry: %d, %d bytes; want 200 and the record's %d", code, len(body), len(data))
	}

	if err := os.Remove(path); err != nil {
		t.Fatal(err)
	}
	if _, ok := svc.Result(k); ok {
		t.Fatal("a vanished record was served")
	}
	if n, l := svc.cache.Quarantined(), svc.cache.Len(); n != 0 || l != 0 {
		t.Fatalf("%d quarantined, %d entries after the file vanished; want 0, 0", n, l)
	}
	if _, err := os.Stat(path + quarantineSuffix); !os.IsNotExist(err) {
		t.Fatalf("a vanished record was quarantined: %v", err)
	}
	if code, _ := getJSON(t, ts.URL+"/v1/results/"+k); code != http.StatusNotFound {
		t.Fatalf("vanished record: %d, want 404", code)
	}
}

// TestStaleGetSparesRestoredEntry has a reader whose read predates a
// quarantine and a re-store of the same bytes drop its entry late: the
// re-stored entry is a different one, so it stays and is served, and
// nothing more is set aside.
func TestStaleGetSparesRestoredEntry(t *testing.T) {
	dir := t.TempDir()
	c, err := NewCache(dir)
	if err != nil {
		t.Fatal(err)
	}
	k, rec, data := testRecord(t, "w", "p", "test")
	if err := c.PutOnce(k, rec, data); err != nil {
		t.Fatal(err)
	}
	c.mu.RLock()
	stale := c.entries[k]
	c.mu.RUnlock()
	c.drop(k, stale, true) // the first reader to find the record torn
	if err := c.PutOnce(k, rec, data); err != nil {
		t.Fatal(err)
	}
	c.drop(k, stale, true) // a reader that read before the re-store
	if c.Quarantined() != 1 || c.Len() != 1 {
		t.Fatalf("%d quarantined, %d entries; want 1, 1", c.Quarantined(), c.Len())
	}
	if got, ok := c.Get(k); !ok || string(got) != string(data) {
		t.Fatalf("re-stored record: %d bytes, %v", len(got), ok)
	}
}

// BenchmarkCacheHit times one cache hit of a real ~5 KB record: over
// the memory store, an index lookup, the store's map read and a
// SHA-256 of the bytes; over a directory, the same with a file read in
// place of the map read. The http/ variants time the whole
// GET /v1/results/{key} round trip that serves such a hit, over
// loopback with a kept-alive connection, so the hit's share of it is
// measured rather than assumed.
func BenchmarkCacheHit(b *testing.B) {
	base := goldenRecord(b)
	k, rec, data := numberedRecord(b, base, 0)
	for _, store := range []struct{ name, dir string }{{"memory", ""}, {"disk", b.TempDir()}} {
		b.Run(store.name, func(b *testing.B) {
			c, err := NewCache(store.dir)
			if err != nil {
				b.Fatal(err)
			}
			if err := c.PutOnce(k, rec, data); err != nil {
				b.Fatal(err)
			}
			b.SetBytes(int64(len(data)))
			b.ReportAllocs()
			for b.Loop() {
				if _, ok := c.Get(k); !ok {
					b.Fatal("hit expected")
				}
			}
		})
	}
	for _, store := range []struct{ name, dir string }{{"http/memory", ""}, {"http/disk", b.TempDir()}} {
		b.Run(store.name, func(b *testing.B) {
			cfg := testConfig()
			cfg.CacheDir = store.dir
			svc, err := New(cfg)
			if err != nil {
				b.Fatal(err)
			}
			ts := httptest.NewServer(svc.Handler())
			b.Cleanup(func() {
				ts.Close()
				_ = svc.Drain(context.Background())
			})
			if err := svc.cache.PutOnce(k, rec, data); err != nil {
				b.Fatal(err)
			}
			url := ts.URL + "/v1/results/" + k
			b.SetBytes(int64(len(data)))
			b.ReportAllocs()
			for b.Loop() {
				resp, err := http.Get(url)
				if err != nil {
					b.Fatal(err)
				}
				n, _ := io.Copy(io.Discard, resp.Body)
				resp.Body.Close()
				if resp.StatusCode != http.StatusOK || n != int64(len(data)) {
					b.Fatalf("GET: %d, %d bytes", resp.StatusCode, n)
				}
			}
		})
	}
}

// TestConcurrentGetsQuarantineOnce has several readers find one torn
// record at once: none serves it, exactly one sets it aside, and a
// fresh PutOnce of the key is served again.
func TestConcurrentGetsQuarantineOnce(t *testing.T) {
	dir := t.TempDir()
	c, err := NewCache(dir)
	if err != nil {
		t.Fatal(err)
	}
	k, rec, data := testRecord(t, "w", "p", "test")
	if err := c.PutOnce(k, rec, data); err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(filepath.Join(dir, k+".json"), data[:len(data)/2], 0o644); err != nil {
		t.Fatal(err)
	}
	var wg sync.WaitGroup
	for range 8 {
		wg.Add(1)
		go func() {
			defer wg.Done()
			if _, ok := c.Get(k); ok {
				t.Error("a torn record was served")
			}
		}()
	}
	wg.Wait()
	if c.Quarantined() != 1 || c.Len() != 0 {
		t.Fatalf("%d quarantined, %d entries; want 1, 0", c.Quarantined(), c.Len())
	}
	if err := c.PutOnce(k, rec, data); err != nil {
		t.Fatal(err)
	}
	if got, ok := c.Get(k); !ok || string(got) != string(data) {
		t.Fatalf("rewritten record: %d bytes, %v", len(got), ok)
	}
}
