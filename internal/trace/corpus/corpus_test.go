package corpus

import (
	"bytes"
	"crypto/sha256"
	"encoding/binary"
	"errors"
	"fmt"
	"io"
	"math/rand"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"cbws/internal/mem"
	"cbws/internal/trace"
)

// randomEvents builds a deterministic mixed-kind event stream.
func randomEvents(n int, seed int64) []trace.Event {
	rng := rand.New(rand.NewSource(seed))
	events := make([]trace.Event, 0, n)
	pc := uint64(0x400000)
	addr := uint64(1 << 28)
	for len(events) < n {
		switch rng.Intn(10) {
		case 0:
			events = append(events, trace.Event{Kind: trace.Instr, N: rng.Intn(64) + 1})
		case 1:
			events = append(events, trace.Event{Kind: trace.BlockBegin, Block: rng.Intn(1 << 12)})
		case 2:
			events = append(events, trace.Event{Kind: trace.BlockEnd, Block: rng.Intn(1 << 12)})
		case 3:
			pc += uint64(rng.Intn(32)) * 4
			events = append(events, trace.Event{Kind: trace.Branch, PC: pc, Taken: rng.Intn(2) == 1})
		default:
			pc += uint64(rng.Intn(8)) * 4
			addr = uint64(int64(addr) + int64(rng.Intn(1<<14)) - 1<<13)
			kind := trace.Load
			if rng.Intn(4) == 0 {
				kind = trace.Store
			}
			events = append(events, trace.Event{Kind: kind, PC: pc, Addr: mem.Addr(addr)})
		}
	}
	return events
}

// packEvents encodes events into an in-memory corpus.
func packEvents(t *testing.T, name string, events []trace.Event, opts Options) []byte {
	t.Helper()
	var buf bytes.Buffer
	w, err := NewWriter(&buf, name, opts)
	if err != nil {
		t.Fatal(err)
	}
	if !w.ConsumeBatch(events) {
		t.Fatalf("writer refused events: %v", w.Close())
	}
	if err := w.Close(); err != nil {
		t.Fatal(err)
	}
	return buf.Bytes()
}

// collect replays a corpus into a materialized slice.
func collect(t *testing.T, c *Corpus) []trace.Event {
	t.Helper()
	out := trace.New(c.Name())
	if err := c.NewReplayer().Replay(out); err != nil {
		t.Fatalf("Replay: %v", err)
	}
	return out.Events
}

// normalize applies the codec's Instr normalization (N=0 encodes as 1).
func normalize(events []trace.Event) []trace.Event {
	out := make([]trace.Event, len(events))
	for i, e := range events {
		if e.Kind == trace.Instr && e.N == 0 {
			e.N = 1
		}
		out[i] = e
	}
	return out
}

// TestRoundTripAllPaths replays each block size from memory
// (OpenBytes) and from a file (Open).
func TestRoundTripAllPaths(t *testing.T) {
	events := randomEvents(3*DefaultBlockEvents+17, 1)
	for _, tc := range []struct {
		name string
		opts Options
	}{
		{"default", Options{}},
		{"small-blocks", Options{BlockEvents: 64}},
	} {
		t.Run(tc.name, func(t *testing.T) {
			data := packEvents(t, "rt", events, tc.opts)
			want := normalize(events)

			c, err := OpenBytes(data)
			if err != nil {
				t.Fatal(err)
			}
			if c.Name() != "rt" {
				t.Errorf("Name = %q", c.Name())
			}
			if c.Events() != uint64(len(events)) {
				t.Errorf("Events = %d, want %d", c.Events(), len(events))
			}
			if got := collect(t, c); !eventsEqual(got, want) {
				t.Fatal("in-memory replay diverged from the packed events")
			}

			path := filepath.Join(t.TempDir(), "rt.cbwc")
			if err := os.WriteFile(path, data, 0o644); err != nil {
				t.Fatal(err)
			}
			cf, err := Open(path, OpenOptions{})
			if err != nil {
				t.Fatal(err)
			}
			defer cf.Close()
			if got := collect(t, cf); !eventsEqual(got, want) {
				t.Fatal("file replay diverged from the packed events")
			}
		})
	}
}

func eventsEqual(a, b []trace.Event) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if a[i] != b[i] {
			return false
		}
	}
	return true
}

// TestOpenFileMmapAndFallback calls both byte sources Open picks
// between — the mapping and the read into memory — and requires the
// same replay and content address from each.
func TestOpenFileMmapAndFallback(t *testing.T) {
	events := randomEvents(5000, 2)
	data := packEvents(t, "file", events, Options{BlockEvents: 512})
	path := filepath.Join(t.TempDir(), "file.cbwc")
	if err := os.WriteFile(path, data, 0o644); err != nil {
		t.Fatal(err)
	}
	want := normalize(events)
	wantHash := fmt.Sprintf("%x", sha256.Sum256(data))
	for _, src := range []struct {
		name string
		load func(string) ([]byte, func() error, error)
	}{
		{"mmap", mmapFile},
		{"read", readFile},
	} {
		b, release, err := src.load(path)
		if errors.Is(err, errMmapUnavailable) {
			t.Logf("%s: unavailable on this platform", src.name)
			continue
		}
		if err != nil {
			t.Fatalf("%s: %v", src.name, err)
		}
		c, err := OpenBytes(b)
		if err != nil {
			t.Fatalf("%s: %v", src.name, err)
		}
		if got := collect(t, c); !eventsEqual(got, want) {
			t.Errorf("%s: replay diverged", src.name)
		}
		if h := c.Hash(); h != wantHash {
			t.Errorf("%s: Hash = %s, want %s", src.name, h, wantHash)
		}
		if err := release(); err != nil {
			t.Errorf("%s: release: %v", src.name, err)
		}
	}

	c, err := Open(path, OpenOptions{})
	if err != nil {
		t.Fatal(err)
	}
	if got := collect(t, c); !eventsEqual(got, want) {
		t.Error("Open replay diverged")
	}
	if err := c.Close(); err != nil {
		t.Errorf("Close: %v", err)
	}
	if _, err := Open(filepath.Join(t.TempDir(), "missing.cbwc"), OpenOptions{}); err == nil {
		t.Error("Open of a missing file succeeded")
	}
}

// TestPackDeterministicHash packs the same stream twice (and from a
// real workload generator) and requires byte-identical files — the
// property the content address rests on.
func TestPackDeterministicHash(t *testing.T) {
	events := randomEvents(10000, 3)
	a := packEvents(t, "det", events, Options{})
	b := packEvents(t, "det", events, Options{})
	if !bytes.Equal(a, b) {
		t.Fatal("packing the same events twice produced different bytes")
	}
}

func TestPackFile(t *testing.T) {
	gen := trace.New("packed")
	gen.Events = randomEvents(3000, 4)
	path := filepath.Join(t.TempDir(), "packed.cbwc")
	res, err := Pack(path, gen, 0, Options{BlockEvents: 256})
	if err != nil {
		t.Fatal(err)
	}
	if res.Events != 3000 {
		t.Errorf("PackResult.Events = %d, want 3000", res.Events)
	}
	c, err := Open(path, OpenOptions{})
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	if h := c.Hash(); h != res.Hash {
		t.Errorf("reopened hash %s != pack hash %s", h, res.Hash)
	}
	if c.Instructions() != res.Instructions {
		t.Errorf("Instructions = %d, want %d", c.Instructions(), res.Instructions)
	}
	st, _ := os.Stat(path)
	if st.Size() != res.Bytes {
		t.Errorf("file size %d != PackResult.Bytes %d", st.Size(), res.Bytes)
	}
}

// TestPackLimit bounds the packed stream by dynamic instructions, the
// same truncation rule trace.Limit applies at simulation time.
func TestPackLimit(t *testing.T) {
	gen := trace.New("limited")
	for i := 0; i < 1000; i++ {
		gen.Events = append(gen.Events, trace.Event{Kind: trace.Instr, N: 10})
	}
	path := filepath.Join(t.TempDir(), "limited.cbwc")
	res, err := Pack(path, gen, 100, Options{})
	if err != nil {
		t.Fatal(err)
	}
	if res.Instructions != 100 {
		t.Errorf("packed %d instructions, want 100", res.Instructions)
	}
}

// TestReplayerReusableAndConcurrent checks a Replayer restarts from the
// first event on every call, and that independent replayers can share
// one Corpus.
func TestReplayerReusable(t *testing.T) {
	events := randomEvents(2000, 5)
	c, err := OpenBytes(packEvents(t, "reuse", events, Options{BlockEvents: 128}))
	if err != nil {
		t.Fatal(err)
	}
	r := c.NewReplayer()
	want := normalize(events)
	for i := 0; i < 3; i++ {
		out := trace.New("x")
		if err := r.Replay(out); err != nil {
			t.Fatal(err)
		}
		if !eventsEqual(out.Events, want) {
			t.Fatalf("replay %d diverged", i)
		}
	}
}

// earlyStopSink stops after max events.
type earlyStopSink struct {
	events int
	max    int
}

func (s *earlyStopSink) ConsumeBatch(batch []trace.Event) bool {
	s.events += len(batch)
	return s.events < s.max
}

func TestReplayHonorsStop(t *testing.T) {
	events := randomEvents(4000, 6)
	c, err := OpenBytes(packEvents(t, "stop", events, Options{BlockEvents: 100}))
	if err != nil {
		t.Fatal(err)
	}
	s := &earlyStopSink{max: 250}
	if err := c.NewReplayer().Replay(s); err != nil {
		t.Fatal(err)
	}
	// Delivery is per block (100 events), so the stop lands at the
	// first block boundary at or past max.
	if s.events != 300 {
		t.Errorf("delivered %d events after stop at 250, want 300 (block granularity)", s.events)
	}
}

// TestReplayThroughLimit drives a corpus through trace.Limit, the path
// the simulator uses, and checks the instruction budget truncates the
// replay exactly as it truncates live generation.
func TestReplayThroughLimit(t *testing.T) {
	spec := trace.New("lim")
	spec.Events = randomEvents(5000, 7)
	c, err := OpenBytes(packEvents(t, "lim", spec.Events, Options{BlockEvents: 64}))
	if err != nil {
		t.Fatal(err)
	}

	const budget = 3000
	direct := trace.Capture(trace.Limit{Gen: spec, Max: budget})
	replayed := trace.Capture(trace.Limit{Gen: c.NewReplayer(), Max: budget})
	if !eventsEqual(normalize(direct.Events), replayed.Events) {
		t.Fatalf("Limit over corpus replay diverged from Limit over direct generation (%d vs %d events)",
			len(direct.Events), len(replayed.Events))
	}
}

func TestWriterRejectsOutOfRangeFields(t *testing.T) {
	for name, e := range map[string]trace.Event{
		"instr-count":    {Kind: trace.Instr, N: trace.MaxInstrCount + 1},
		"block-negative": {Kind: trace.BlockBegin, Block: -1},
		"block-huge":     {Kind: trace.BlockEnd, Block: trace.MaxBlockID + 1},
		"unknown-kind":   {Kind: trace.Kind(99)},
	} {
		var buf bytes.Buffer
		w, err := NewWriter(&buf, "x", Options{})
		if err != nil {
			t.Fatal(err)
		}
		w.ConsumeBatch([]trace.Event{e})
		if err := w.Close(); err == nil {
			t.Errorf("%s: expected Close to report the encoding error", name)
		}
	}
}

// TestWriterRejectsAtBlockBoundary puts an invalid event right after a
// full block, where the writer has just flushed that block and starts
// the next: Close must still report the error, whether the event opens
// a batch of its own or sits inside one.
func TestWriterRejectsAtBlockBoundary(t *testing.T) {
	events := randomEvents(DefaultBlockEvents+10, 7)
	events[DefaultBlockEvents] = trace.Event{Kind: trace.BlockBegin, Block: -1}
	for _, cut := range []int{len(events), DefaultBlockEvents} {
		w, err := NewWriter(io.Discard, "x", Options{})
		if err != nil {
			t.Fatal(err)
		}
		first := w.ConsumeBatch(events[:cut])
		second := w.ConsumeBatch(events[cut:])
		if first != (cut == DefaultBlockEvents) || second {
			t.Errorf("cut %d: ConsumeBatch reported %v, %v", cut, first, second)
		}
		if err := w.Close(); err == nil {
			t.Errorf("cut %d: Close reported no error for the invalid event %d", cut, DefaultBlockEvents)
		}
		if w.Events() != DefaultBlockEvents {
			t.Errorf("cut %d: %d events encoded, want %d", cut, w.Events(), DefaultBlockEvents)
		}
	}
}

// TestWriterClosedTakesNoEvents checks a closed writer stays closed: a
// ConsumeBatch after Close reports false and adds nothing to the file,
// even a full block's worth, and a second Close returns the first
// one's result.
func TestWriterClosedTakesNoEvents(t *testing.T) {
	var buf bytes.Buffer
	w, err := NewWriter(&buf, "x", Options{BlockEvents: 16})
	if err != nil {
		t.Fatal(err)
	}
	w.ConsumeBatch(randomEvents(40, 3))
	if err := w.Close(); err != nil {
		t.Fatal(err)
	}
	size, sum := buf.Len(), w.Sum()
	if w.ConsumeBatch(randomEvents(64, 4)) {
		t.Error("ConsumeBatch after Close reported true")
	}
	if err := w.Close(); err != nil {
		t.Errorf("second Close: %v", err)
	}
	if buf.Len() != size || w.Sum() != sum || w.Events() != 40 {
		t.Errorf("after Close the file grew from %d to %d bytes (%d events)", size, buf.Len(), w.Events())
	}
}

// TestNameLengthBound checks the writer and the reader agree on
// trace.MaxNameLen, the bound the CBWT stream codec shares: a longer
// name is refused, one of exactly that length round-trips.
func TestNameLengthBound(t *testing.T) {
	if _, err := NewWriter(io.Discard, strings.Repeat("n", trace.MaxNameLen+1), Options{}); err == nil {
		t.Errorf("NewWriter accepted a %d-byte name", trace.MaxNameLen+1)
	}
	name := strings.Repeat("n", trace.MaxNameLen)
	c, err := OpenBytes(packEvents(t, name, randomEvents(100, 7), Options{}))
	if err != nil {
		t.Fatal(err)
	}
	if c.Name() != name {
		t.Errorf("corpus name has %d bytes, want %d", len(c.Name()), len(name))
	}
}

func TestEmptyCorpus(t *testing.T) {
	data := packEvents(t, "empty", nil, Options{})
	c, err := OpenBytes(data)
	if err != nil {
		t.Fatal(err)
	}
	if c.Events() != 0 || c.Blocks() != 0 {
		t.Errorf("empty corpus has %d events in %d blocks", c.Events(), c.Blocks())
	}
	if got := collect(t, c); len(got) != 0 {
		t.Errorf("empty corpus replayed %d events", len(got))
	}
}

// TestOpenRejectsCorrupt flips classes of structural damage and
// requires ErrBadCorpus from Open (or from Replay for in-block damage).
func TestOpenRejectsCorrupt(t *testing.T) {
	events := randomEvents(1000, 8)
	data := packEvents(t, "corrupt", events, Options{BlockEvents: 128})

	mutate := func(f func(b []byte)) []byte {
		b := bytes.Clone(data)
		f(b)
		return b
	}
	cases := map[string][]byte{
		"truncated":   data[:len(data)-4],
		"empty":       {},
		"bad-magic":   mutate(func(b []byte) { b[0] = 'X' }),
		"bad-version": mutate(func(b []byte) { b[4] = 9 }),
		"bad-flags":   mutate(func(b []byte) { b[5] = 0x80 }),
		// Flag bit 0 marked the DEFLATE payloads of the removed
		// compressed variant.
		"compressed-flag": mutate(func(b []byte) { b[5] = 0x01 }),
		"reserved":        mutate(func(b []byte) { b[6] = 1 }),
		"bad-granule":     mutate(func(b []byte) { binary.LittleEndian.PutUint32(b[8:], 0) }),
		"bad-end":         mutate(func(b []byte) { b[len(b)-1] ^= 0xFF }),
		"bad-index-off": mutate(func(b []byte) {
			binary.LittleEndian.PutUint64(b[len(b)-trailerLen:], 1)
		}),
		"bad-event-count": mutate(func(b []byte) {
			binary.LittleEndian.PutUint64(b[len(b)-trailerLen+24:], 7)
		}),
		"stored-ne-raw": mutate(func(b []byte) {
			indexOff := binary.LittleEndian.Uint64(b[len(b)-trailerLen:])
			stored := b[indexOff+8:]
			binary.LittleEndian.PutUint32(stored, binary.LittleEndian.Uint32(stored)-1)
		}),
	}
	for name, b := range cases {
		if _, err := OpenBytes(b); !errors.Is(err, ErrBadCorpus) {
			t.Errorf("%s: OpenBytes err = %v, want ErrBadCorpus", name, err)
		}
	}

	// In-block corruption: parses fine, fails on replay. Find a byte in
	// the first block's kind column (right after the header) and bend it
	// to an unknown kind.
	c, err := OpenBytes(data)
	if err != nil {
		t.Fatal(err)
	}
	first := c.index[0]
	broken := bytes.Clone(data)
	broken[first.offset] = 0x7F
	cb, err := OpenBytes(broken)
	if err != nil {
		t.Fatalf("in-block damage should parse: %v", err)
	}
	if err := cb.NewReplayer().Replay(trace.New("x")); !errors.Is(err, ErrBadCorpus) {
		t.Errorf("Replay of corrupt block: err = %v, want ErrBadCorpus", err)
	}
}

// TestDecodeRejectsOverCapFields builds a corpus whose columns carry
// over-cap values (bypassing the writer's validation) and requires the
// decoder to reject them — the same 32-bit hardening the stream codec
// has.
func TestDecodeRejectsOverCapFields(t *testing.T) {
	build := func(kind trace.Kind, col int, v uint64) []byte {
		var buf bytes.Buffer
		w, err := NewWriter(&buf, "x", Options{BlockEvents: 16})
		if err != nil {
			t.Fatal(err)
		}
		// Hand-roll a single-event block with an oversized column value.
		w.cols[colKinds] = append(w.cols[colKinds], byte(kind))
		w.cols[col] = binary.AppendUvarint(w.cols[col], v)
		w.events = 1
		w.eventCount = 1
		w.flushBlock()
		if err := w.Close(); err != nil {
			t.Fatal(err)
		}
		return buf.Bytes()
	}
	cases := map[string][]byte{
		"instr-count": build(trace.Instr, colN, uint64(trace.MaxInstrCount)+1),
		"block-id":    build(trace.BlockBegin, colBlock, uint64(trace.MaxBlockID)+1),
	}
	for name, data := range cases {
		c, err := OpenBytes(data)
		if err != nil {
			t.Fatalf("%s: parse: %v", name, err)
		}
		if err := c.NewReplayer().Replay(trace.New("x")); !errors.Is(err, ErrBadCorpus) {
			t.Errorf("%s: Replay err = %v, want ErrBadCorpus", name, err)
		}
	}
}

// TestColumnar pins the format's columnar promise on a strided stream:
// the address column delta-encodes to ~1 byte per access.
func TestColumnarCompactness(t *testing.T) {
	var events []trace.Event
	for i := 0; i < 10000; i++ {
		events = append(events, trace.Event{Kind: trace.Load, PC: 0x400100, Addr: mem.Addr(1<<30 + i*64)})
	}
	data := packEvents(t, "stride", events, Options{})
	c, err := OpenBytes(data)
	if err != nil {
		t.Fatal(err)
	}
	cols := c.ColumnBytes()
	if perEvent := float64(cols[colAddr]) / 10000; perEvent > 2.5 {
		t.Errorf("strided addr column is %.2f bytes/event, want <= 2.5", perEvent)
	}
	if perEvent := float64(len(data)) / 10000; perEvent > 4.5 {
		t.Errorf("strided corpus is %.2f bytes/event, want <= 4.5", perEvent)
	}
}
