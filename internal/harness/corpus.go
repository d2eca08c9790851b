package harness

import (
	"fmt"
	"os"
	"path/filepath"
	"sort"
	"strings"
	"sync"

	"cbws/internal/trace"
	"cbws/internal/trace/corpus"
	"cbws/internal/workload"
)

// CorpusSource serves workloads from packed CBWC trace corpora instead
// of live generators. It maps workload names (the name recorded in each
// corpus header) to opened corpora, so a harness run can replay
// captured traces at memory bandwidth while workloads without a packed
// corpus fall back to their generators untouched.
//
// A CorpusSource is immutable after OpenCorpusDir and safe for
// concurrent use: every Override hands out a fresh Replayer over the
// shared read-only Corpus.
type CorpusSource struct {
	corpora map[string]*corpus.Corpus
	hashes  map[string]string

	closeMu sync.Mutex
	closed  bool //cbws:guardedby closeMu
}

// OpenCorpusDir opens every *.cbwc file in dir, keyed by the workload
// name in its header. Two corpora claiming the same workload name are
// rejected — the source must be unambiguous about which bytes back a
// name, because the content hash feeds cache keys.
func OpenCorpusDir(dir string) (*CorpusSource, error) {
	entries, err := os.ReadDir(dir)
	if err != nil {
		return nil, fmt.Errorf("harness: corpus dir: %w", err)
	}
	s := &CorpusSource{
		corpora: make(map[string]*corpus.Corpus),
		hashes:  make(map[string]string),
	}
	for _, ent := range entries {
		if ent.IsDir() || !strings.HasSuffix(ent.Name(), ".cbwc") {
			continue
		}
		path := filepath.Join(dir, ent.Name())
		c, err := corpus.Open(path, corpus.OpenOptions{})
		if err != nil {
			s.Close()
			return nil, fmt.Errorf("harness: corpus %s: %w", path, err)
		}
		name := c.Name()
		if _, dup := s.corpora[name]; dup {
			c.Close()
			s.Close()
			return nil, fmt.Errorf("harness: corpus dir %s: two corpora claim workload %q", dir, name)
		}
		s.corpora[name] = c
		s.hashes[name] = c.Hash()
	}
	if len(s.corpora) == 0 {
		s.Close()
		return nil, fmt.Errorf("harness: corpus dir %s holds no .cbwc files", dir)
	}
	return s, nil
}

// Names returns the workload names with a packed corpus, sorted.
func (s *CorpusSource) Names() []string {
	out := make([]string, 0, len(s.corpora))
	for name := range s.corpora {
		out = append(out, name)
	}
	sort.Strings(out)
	return out
}

// Hash returns the content address (hex SHA-256 of the file bytes) of
// the corpus backing name.
func (s *CorpusSource) Hash(name string) (string, bool) {
	h, ok := s.hashes[name]
	return h, ok
}

// CheckCovers reports an error when the corpus backing name holds
// fewer than need dynamic instructions: its replay would end before a
// need-instruction run does, and the short run would pass for a full
// one. A name without a corpus passes.
func (s *CorpusSource) CheckCovers(name string, need uint64) error {
	if c, ok := s.corpora[name]; ok && c.Instructions() < need {
		return fmt.Errorf("corpus for %q holds %d instructions, run needs %d", name, c.Instructions(), need)
	}
	return nil
}

// Override returns spec with Make rebound to corpus replay when a
// corpus backs spec.Name, and spec unchanged otherwise. Each
// constructed generator is an independent Replayer, so overridden
// specs stay safe for the harness's parallel fills.
func (s *CorpusSource) Override(spec workload.Spec) workload.Spec {
	c, ok := s.corpora[spec.Name]
	if !ok {
		return spec
	}
	spec.Make = func() trace.Generator { return c.NewReplayer() }
	return spec
}

// Close releases every opened corpus.
func (s *CorpusSource) Close() error {
	s.closeMu.Lock()
	defer s.closeMu.Unlock()
	if s.closed {
		return nil
	}
	s.closed = true
	var first error
	for _, c := range s.corpora {
		if err := c.Close(); err != nil && first == nil {
			first = err
		}
	}
	return first
}
