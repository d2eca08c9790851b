package service

import (
	"crypto/sha256"
	"encoding/json"
	"errors"
	"fmt"
	"io/fs"
	"os"
	"path/filepath"
	"regexp"
	"sort"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"

	"cbws/internal/harness"
)

// cacheEntry is the index entry of one cached result: the file that
// holds its run record, the names read from the record, and the
// SHA-256 of the bytes verified at load or written by PutOnce. The
// record's bytes stay in the store. While the first writer's file
// write is in flight the entry is pending: it is not served, and a
// second writer of the key waits for the outcome.
type cacheEntry struct {
	// file is "<key>.json"; the index key is its first 64 bytes, so
	// the two share one allocation.
	file                 string
	workload, prefetcher string
	sum                  [sha256.Size]byte
	pending              *pendingWrite
	// gen tells this entry apart from a later one of the same key and
	// bytes: 0 for an entry loaded at open, else the PutOnce that
	// stored it.
	gen uint64
}

// pendingWrite is the outcome of an entry's file write: err is set
// before done is closed.
type pendingWrite struct {
	done chan struct{}
	err  error
}

// Cache is the content-addressed result store: encoded run records
// keyed by JobSpec.Key. The bytes live in a store behind the cacheFS
// seam — a directory (osFS) when one is configured, else the heap
// (memFS) — and the Cache keeps only an index: per key, the record's
// names, the SHA-256 of its bytes and the state of its first write.
// Each record is written through atomically and durably, so a
// restarted daemon starts warm even after a crash, and every read is
// re-hashed against the index, so a record that rots on disk is never
// served. The record is the only catalogue: it carries its own names,
// code version and workload hash, so every file re-derives the key it
// is stored under. Every daemon runs this one path; only the store
// differs.
type Cache struct {
	store cacheFS
	// quarantined counts the records set aside as torn, mis-keyed or
	// changed since they were verified: at load, or when a read finds
	// bytes that no longer hash to the index.
	quarantined atomic.Int64

	mu      sync.RWMutex
	entries map[string]cacheEntry //cbws:guardedby mu
	gens    uint64                //cbws:guardedby mu — PutOnce calls that stored an entry
}

// keyFileRE matches content-address file names: 64 hex chars + .json.
var keyFileRE = regexp.MustCompile(`^[0-9a-f]{64}\.json$`)

// quarantineSuffix is appended to a file that fails verification, so it
// no longer matches keyFileRE but stays in the store for inspection.
const quarantineSuffix = ".quarantined"

// NewCache opens a result cache over dir, or over the heap when dir is
// empty, and indexes what the store holds. Every <key>.json is verified
// against its key; a file that fails (torn, not a run record, or keyed
// from other values) is renamed aside and counted, never served. Only
// the index entry of a verified file is kept, not its bytes.
func NewCache(dir string) (*Cache, error) {
	if dir == "" {
		return openCache(newMemFS())
	}
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return nil, fmt.Errorf("cache: %w", err)
	}
	return openCache(osFS{dir: dir})
}

// openCache indexes the records store holds.
func openCache(store cacheFS) (*Cache, error) {
	names, err := store.List()
	if err != nil {
		return nil, fmt.Errorf("cache: %w", err)
	}
	entries := make(map[string]cacheEntry)
	quarantined := 0
	for _, name := range names {
		if !keyFileRE.MatchString(name) {
			continue
		}
		data, err := store.ReadFile(name)
		if err != nil {
			return nil, fmt.Errorf("cache: %w", err)
		}
		key := strings.TrimSuffix(name, ".json")
		rec, err := verifyRecord(key, data)
		if err != nil {
			if err := store.Rename(name, name+quarantineSuffix); err != nil {
				return nil, fmt.Errorf("cache: quarantining %s: %w", name, err)
			}
			quarantined++
			continue
		}
		entries[key] = cacheEntry{file: name, workload: rec.Workload, prefetcher: rec.Prefetcher, sum: sha256.Sum256(data)}
	}
	// The map is fully built before the Cache is published, so no lock
	// is taken here.
	c := &Cache{store: store, entries: entries}
	c.quarantined.Store(int64(quarantined))
	return c, nil
}

// verifyRecord decodes and validates the run record stored under key,
// and checks that the record's own identity (names, config, workload
// hash, code version) hashes to that key. It is the one check every
// byte entering the cache from outside this process passes: a file at
// start-up or a sibling's peer-fetch answer.
func verifyRecord(key string, data []byte) (*harness.RunRecord, error) {
	rec := &harness.RunRecord{}
	if err := json.Unmarshal(data, rec); err != nil {
		return nil, fmt.Errorf("run record: %w", err)
	}
	if err := rec.Validate(); err != nil {
		return nil, err
	}
	spec := JobSpec{Workload: rec.Workload, Prefetcher: rec.Prefetcher, Config: rec.Config, WorkloadHash: rec.WorkloadHash}
	if got := spec.Key(rec.CodeVersion); got != key {
		return nil, fmt.Errorf("run record keys to %.12s…, stored under %.12s…", got, key)
	}
	return rec, nil
}

// Get returns the result bytes cached under key, unless its file write
// is still in flight. It reads the record from the store and re-hashes
// it: a record whose bytes no longer match the SHA-256 taken when they
// were verified or written is quarantined, and one whose file is gone
// is dropped from the index; either is reported as a miss, so the key
// is simulated again and never served stale. Any other read error (a
// daemon out of descriptors, say) is a miss that leaves the file and
// its entry alone: the record may well be intact, and a retry may read
// it. The returned bytes must not be mutated by the caller. This is
// the cache-hit serving path; over the memory store it allocates
// nothing (memFS.ReadFile).
func (c *Cache) Get(key string) ([]byte, bool) {
	c.mu.RLock()
	e, ok := c.entries[key]
	c.mu.RUnlock()
	if !ok || e.pending != nil {
		return nil, false
	}
	data, err := c.store.ReadFile(e.file)
	switch {
	case err == nil && sha256.Sum256(data) == e.sum:
		return data, true
	case err == nil:
		c.drop(key, e, true)
	case errors.Is(err, fs.ErrNotExist):
		c.drop(key, e, false)
	}
	return nil, false
}

// drop removes e, which failed a read, from the index, and with
// quarantine set renames its file aside and counts it. Only the entry
// that read saw is dropped: a concurrent Get may already have dropped
// it and a PutOnce stored the key afresh, with the same bytes or not.
// A failed rename is ignored (the file may have gone meanwhile): the
// entry is dropped either way, and a later write of the key replaces
// the file.
func (c *Cache) drop(key string, e cacheEntry, quarantine bool) {
	c.mu.Lock()
	defer c.mu.Unlock()
	if cur, ok := c.entries[key]; !ok || cur.gen != e.gen {
		return
	}
	delete(c.entries, key)
	if quarantine {
		_ = c.store.Rename(e.file, e.file+quarantineSuffix)
		c.quarantined.Add(1)
	}
}

// Names returns the workload and prefetcher of the record cached under
// key, unless its file write is still in flight. It reads only the
// index: it is the presence test of Submit and Status.
func (c *Cache) Names(key string) (workload, prefetcher string, ok bool) {
	c.mu.RLock()
	e, ok := c.entries[key]
	c.mu.RUnlock()
	if !ok || e.pending != nil {
		return "", "", false
	}
	return e.workload, e.prefetcher, true
}

// Len returns the number of cached results, counting any whose file
// write is still in flight.
func (c *Cache) Len() int {
	c.mu.RLock()
	defer c.mu.RUnlock()
	return len(c.entries)
}

// Quarantined returns the number of records set aside since the cache
// was opened, at load or by a read whose bytes failed the hash.
func (c *Cache) Quarantined() int { return int(c.quarantined.Load()) }

// PutOnce stores data, the encoding of rec, under key if the key is
// absent; it is the cache's only write path. First write wins:
// streaming finalization and peer fetch can race the closed-job path
// to the same key, and the bytes stored first (which include run-local
// telemetry like wall time) stay authoritative, so every later writer
// is served those exact bytes. The entry is written through atomically
// and durably, and it is served only once that write has succeeded;
// if the write fails it is taken back out, so a result is never served
// without its file. A later writer that arrives while the first write
// is in flight waits for it and returns its error, so no caller
// reports a result stored that is not. The store copies data; the
// caller may reuse it.
func (c *Cache) PutOnce(key string, rec *harness.RunRecord, data []byte) error {
	c.mu.Lock()
	if e, ok := c.entries[key]; ok {
		c.mu.Unlock()
		if e.pending == nil {
			return nil
		}
		<-e.pending.done
		return e.pending.err
	}
	p := &pendingWrite{done: make(chan struct{})}
	file := key + ".json"
	// Index under the file name's prefix, on both assignments: storing
	// to a present string key replaces the key too.
	key = file[:len(key)]
	c.gens++
	e := cacheEntry{file: file, workload: rec.Workload, prefetcher: rec.Prefetcher, sum: sha256.Sum256(data), pending: p, gen: c.gens}
	c.entries[key] = e
	c.mu.Unlock()

	p.err = writeFileAtomic(c.store, file, data)
	// The entry still holds this call's bytes: no other call replaces
	// an entry, and only the call that stored it settles it.
	c.mu.Lock()
	if p.err != nil {
		delete(c.entries, key)
	} else {
		e.pending = nil
		c.entries[key] = e
	}
	c.mu.Unlock()
	close(p.done)
	return p.err
}

// writeFileAtomic writes data to name via a synced temp file and a
// rename, then syncs the directory, so neither a concurrent reader nor
// a crash observes a torn entry and a returned nil means the entry is
// durable.
func writeFileAtomic(store cacheFS, name string, data []byte) error {
	tmp, err := store.CreateTemp(name + ".tmp*")
	if err != nil {
		return fmt.Errorf("cache: %w", err)
	}
	_, err = tmp.Write(data)
	if err == nil {
		err = tmp.Sync()
	}
	if cerr := tmp.Close(); err == nil {
		err = cerr
	}
	if err == nil {
		err = store.Rename(tmp.Name(), name)
	}
	if err != nil {
		_ = store.Remove(tmp.Name()) // best effort: a stray temp file never matches keyFileRE
		return fmt.Errorf("cache: %w", err)
	}
	if err := store.SyncDir(); err != nil {
		return fmt.Errorf("cache: %w", err)
	}
	return nil
}

// cacheFS is the cache's storage seam over one flat directory of
// records: the primitives of an atomic, durable write (create-temp,
// then the file's write, sync and close, rename, sync-dir) plus read,
// remove and list. Names are base names within the directory. osFS
// serves a cache directory and memFS a memory-only cache; tests wrap
// either to fail or crash at any primitive.
type cacheFS interface {
	CreateTemp(pattern string) (cacheFile, error)
	Rename(oldname, newname string) error
	SyncDir() error
	ReadFile(name string) ([]byte, error)
	Remove(name string) error
	List() ([]string, error)
}

// cacheFile is a temp file open for writing, named by its base name.
type cacheFile interface {
	Name() string
	Write(p []byte) (int, error)
	Sync() error
	Close() error
}

// osFS is the store of a cache directory.
type osFS struct{ dir string }

func (s osFS) CreateTemp(pattern string) (cacheFile, error) {
	f, err := os.CreateTemp(s.dir, pattern)
	if err != nil {
		return nil, err
	}
	return osFile{f}, nil
}

func (s osFS) Rename(oldname, newname string) error {
	return os.Rename(filepath.Join(s.dir, oldname), filepath.Join(s.dir, newname))
}

// SyncDir flushes the directory's entries, making a rename into it
// durable.
func (s osFS) SyncDir() error {
	d, err := os.Open(s.dir)
	if err != nil {
		return err
	}
	defer d.Close() // opened only to sync; nothing written through it
	return d.Sync()
}

func (s osFS) ReadFile(name string) ([]byte, error) { return os.ReadFile(filepath.Join(s.dir, name)) }

func (s osFS) Remove(name string) error { return os.Remove(filepath.Join(s.dir, name)) }

func (s osFS) List() ([]string, error) {
	des, err := os.ReadDir(s.dir)
	if err != nil {
		return nil, err
	}
	names := make([]string, len(des))
	for i, de := range des {
		names[i] = de.Name()
	}
	return names, nil
}

// osFile reports an *os.File by its base name.
type osFile struct{ *os.File }

func (f osFile) Name() string { return filepath.Base(f.File.Name()) }

// memFS is the store of a memory-only cache, and the only store whose
// bytes live in the heap. They stay there for the daemon's life, so a
// write copies them into a buffer of exactly their length: a record
// arrives in MarshalIndent's buffer, sized for growth at up to twice
// the record.
type memFS struct {
	mu    sync.Mutex
	files map[string][]byte //cbws:guardedby mu
	temps int               //cbws:guardedby mu
}

func newMemFS() *memFS { return &memFS{files: make(map[string][]byte)} }

func (m *memFS) CreateTemp(pattern string) (cacheFile, error) {
	m.mu.Lock()
	defer m.mu.Unlock()
	m.temps++
	prefix, suffix := pattern, "" // as os.CreateTemp: the last "*" is replaced
	if i := strings.LastIndex(pattern, "*"); i >= 0 {
		prefix, suffix = pattern[:i], pattern[i+1:]
	}
	name := prefix + strconv.Itoa(m.temps) + suffix
	m.files[name] = nil
	return &memFile{m: m, name: name}, nil
}

func (m *memFS) Rename(oldname, newname string) error {
	m.mu.Lock()
	defer m.mu.Unlock()
	data, ok := m.files[oldname]
	if !ok {
		return &fs.PathError{Op: "rename", Path: oldname, Err: fs.ErrNotExist}
	}
	delete(m.files, oldname)
	m.files[newname] = data
	return nil
}

func (m *memFS) SyncDir() error { return nil }

// ReadFile returns the stored bytes themselves, not a copy: the cache
// hands them out read-only. It is the memory cache's hit path and
// allocates nothing, so a miss returns fs.ErrNotExist unwrapped.
//
//cbws:hotpath
func (m *memFS) ReadFile(name string) ([]byte, error) {
	m.mu.Lock()
	data, ok := m.files[name]
	m.mu.Unlock()
	if !ok {
		return nil, fs.ErrNotExist
	}
	return data, nil
}

func (m *memFS) Remove(name string) error {
	m.mu.Lock()
	defer m.mu.Unlock()
	if _, ok := m.files[name]; !ok {
		return &fs.PathError{Op: "remove", Path: name, Err: fs.ErrNotExist}
	}
	delete(m.files, name)
	return nil
}

func (m *memFS) List() ([]string, error) {
	m.mu.Lock()
	defer m.mu.Unlock()
	names := make([]string, 0, len(m.files))
	for name := range m.files {
		names = append(names, name)
	}
	sort.Strings(names)
	return names, nil
}

// memFile is a memFS temp file: its bytes reach the store at Close.
type memFile struct {
	m    *memFS
	name string
	data []byte
}

func (f *memFile) Name() string { return f.name }

func (f *memFile) Write(p []byte) (int, error) {
	data := make([]byte, len(f.data)+len(p))
	copy(data[copy(data, f.data):], p)
	f.data = data
	return len(p), nil
}

func (f *memFile) Sync() error { return nil }

func (f *memFile) Close() error {
	f.m.mu.Lock()
	defer f.m.mu.Unlock()
	f.m.files[f.name] = f.data
	return nil
}
