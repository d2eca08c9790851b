package service

import (
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
	"regexp"
	"strings"
	"sync"

	"cbws/internal/harness"
)

// cacheEntry is one cached result: the encoded run record and the
// names read from it. While the first writer's file write is in flight
// the entry is pending: it is not served, and a second writer of the
// key waits for the outcome.
type cacheEntry struct {
	data                 []byte
	workload, prefetcher string
	pending              *pendingWrite
}

// pendingWrite is the outcome of an entry's file write: err is set
// before done is closed.
type pendingWrite struct {
	done chan struct{}
	err  error
}

// Cache is the content-addressed result store: encoded run records
// keyed by JobSpec.Key. All entries live in memory — a hit serves
// pre-encoded bytes with no I/O or allocation — and, when a directory
// is configured, each entry is written through to <key>.json and
// synced, so a restarted daemon starts warm even after a crash. The
// record is the only catalogue: it carries its own names, code version
// and workload hash, so every file re-derives the key it is stored
// under.
type Cache struct {
	dir string
	// quarantined counts the files NewCache set aside as torn or
	// mis-keyed; fixed once the Cache is built.
	quarantined int
	// write stores one entry's file; writeFileAtomic outside tests.
	write func(dir, name string, data []byte) error

	mu      sync.RWMutex
	entries map[string]cacheEntry //cbws:guardedby mu
}

// keyFileRE matches content-address file names: 64 hex chars + .json.
var keyFileRE = regexp.MustCompile(`^[0-9a-f]{64}\.json$`)

// quarantineSuffix is appended to a file that fails verification, so it
// no longer matches keyFileRE but stays on disk for inspection.
const quarantineSuffix = ".quarantined"

// NewCache opens (and, for a non-empty dir, loads) a result cache.
// Every <key>.json is verified against its key; a file that fails (torn,
// not a run record, or keyed from other values) is renamed aside and
// counted, never served.
func NewCache(dir string) (*Cache, error) {
	entries := make(map[string]cacheEntry)
	if dir == "" {
		return &Cache{write: writeFileAtomic, entries: entries}, nil
	}
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return nil, fmt.Errorf("cache: %w", err)
	}
	names, err := os.ReadDir(dir)
	if err != nil {
		return nil, fmt.Errorf("cache: %w", err)
	}
	quarantined := 0
	for _, de := range names {
		name := de.Name()
		if !keyFileRE.MatchString(name) {
			continue
		}
		path := filepath.Join(dir, name)
		data, err := os.ReadFile(path)
		if err != nil {
			return nil, fmt.Errorf("cache: %w", err)
		}
		key := strings.TrimSuffix(name, ".json")
		rec, err := verifyRecord(key, data)
		if err != nil {
			if err := os.Rename(path, path+quarantineSuffix); err != nil {
				return nil, fmt.Errorf("cache: quarantining %s: %w", name, err)
			}
			quarantined++
			continue
		}
		entries[key] = cacheEntry{data: data, workload: rec.Workload, prefetcher: rec.Prefetcher}
	}
	// The map is fully built before the Cache is published, so no lock
	// is taken here.
	return &Cache{dir: dir, quarantined: quarantined, write: writeFileAtomic, entries: entries}, nil
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

// Get returns the pre-encoded result bytes for key, unless its file
// write is still in flight. This is the cache-hit serving path — a
// repeated sweep is answered entirely from here — and it allocates
// nothing: the stored bytes are returned as-is and must not be mutated
// by the caller.
//
//cbws:hotpath
func (c *Cache) Get(key string) ([]byte, bool) {
	c.mu.RLock()
	e, ok := c.entries[key]
	c.mu.RUnlock()
	if !ok || e.pending != nil {
		return nil, false
	}
	return e.data, true
}

// Names returns the workload and prefetcher of the record cached under
// key, unless its file write is still in flight.
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

// PutOnce stores data, the encoding of rec, under key if the key is
// absent; it is the cache's only write path. First write wins:
// streaming finalization and peer fetch can race the closed-job path
// to the same key, and the bytes stored first (which include run-local
// telemetry like wall time) stay authoritative, so every later writer
// is served those exact bytes. With a directory configured the entry
// is written through atomically and durably, and it is served only
// once that write has succeeded; if the write fails it is taken back
// out, so a result is never served without its file. A later writer
// that arrives while the first write is in flight waits for it and
// returns its error, so no caller reports a result stored that is not.
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
	e := cacheEntry{data: data, workload: rec.Workload, prefetcher: rec.Prefetcher}
	if c.dir == "" {
		c.entries[key] = e
		c.mu.Unlock()
		return nil
	}
	p := &pendingWrite{done: make(chan struct{})}
	e.pending = p
	c.entries[key] = e
	c.mu.Unlock()

	p.err = c.write(c.dir, key+".json", data)
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

// writeFileAtomic writes data to dir/name via a synced temp file and a
// rename, then syncs dir, so neither a concurrent reader nor a crash
// observes a torn entry and a returned nil means the entry is durable.
func writeFileAtomic(dir, name string, data []byte) error {
	tmp, err := os.CreateTemp(dir, name+".tmp*")
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
		err = os.Rename(tmp.Name(), filepath.Join(dir, name))
	}
	if err != nil {
		os.Remove(tmp.Name())
		return fmt.Errorf("cache: %w", err)
	}
	return syncDir(dir)
}

// syncDir flushes dir's entries, making a rename into it durable.
func syncDir(dir string) error {
	d, err := os.Open(dir)
	if err != nil {
		return fmt.Errorf("cache: %w", err)
	}
	defer d.Close() // opened only to sync; nothing written through it
	if err := d.Sync(); err != nil {
		return fmt.Errorf("cache: %w", err)
	}
	return nil
}
