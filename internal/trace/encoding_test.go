package trace

import (
	"bytes"
	"encoding/binary"
	"errors"
	"io"
	"math/rand"
	"strings"
	"testing"

	"cbws/internal/mem"
)

func roundTrip(t *testing.T, name string, events []Event) *Reader {
	t.Helper()
	var buf bytes.Buffer
	w, err := NewWriter(&buf, name)
	if err != nil {
		t.Fatalf("NewWriter: %v", err)
	}
	w.ConsumeBatch(events)
	if err := w.Close(); err != nil {
		t.Fatalf("Close: %v", err)
	}
	r, err := NewReader(&buf)
	if err != nil {
		t.Fatalf("NewReader: %v", err)
	}
	return r
}

func TestEncodeDecodeRoundTrip(t *testing.T) {
	events := []Event{
		{Kind: BlockBegin, Block: 12},
		{Kind: Load, PC: 0x401000, Addr: 0x12345678},
		{Kind: Store, PC: 0x401004, Addr: 0x12345640},
		{Kind: Instr, N: 42},
		{Kind: Load, PC: 0x401000, Addr: 0x12345679},
		{Kind: BlockEnd, Block: 12},
	}
	r := roundTrip(t, "rt", events)
	if r.Name() != "rt" {
		t.Errorf("Name = %q", r.Name())
	}
	var tr Trace
	if err := r.DecodeBatches(&tr); err != nil {
		t.Fatalf("DecodeBatches: %v", err)
	}
	got := tr.Events
	if len(got) != len(events) {
		t.Fatalf("decoded %d events, want %d", len(got), len(events))
	}
	for i := range events {
		want := events[i]
		if want.Kind == Instr && want.N == 0 {
			want.N = 1
		}
		if got[i] != want {
			t.Errorf("event %d: got %+v, want %+v", i, got[i], want)
		}
	}
}

func TestEncodeDecodeRandom(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	var events []Event
	pc := uint64(0x400000)
	addr := uint64(1 << 30)
	for i := 0; i < 5000; i++ {
		switch rng.Intn(5) {
		case 0:
			events = append(events, Event{Kind: Instr, N: 1 + rng.Intn(100)})
		case 1, 2:
			pc += uint64(rng.Intn(64)) * 4
			addr += uint64(rng.Int63n(1<<20)) - 1<<19
			events = append(events, Event{Kind: Load, PC: pc, Addr: mem.Addr(addr)})
		case 3:
			events = append(events, Event{Kind: Store, PC: pc, Addr: mem.Addr(addr)})
		case 4:
			events = append(events, Event{Kind: BlockBegin, Block: rng.Intn(16)})
		}
		if rng.Intn(4) == 0 {
			pc += 4
			events = append(events, Event{Kind: Branch, PC: pc, Taken: rng.Intn(2) == 0})
		}
	}
	r := roundTrip(t, "random", events)
	var got Trace
	if err := r.DecodeBatches(&got); err != nil {
		t.Fatalf("DecodeBatches: %v", err)
	}
	if len(got.Events) != len(events) {
		t.Fatalf("decoded %d of %d events", len(got.Events), len(events))
	}
	for i, e := range got.Events {
		if e != events[i] {
			t.Fatalf("event %d mismatch: got %+v want %+v", i, e, events[i])
		}
	}
}

func TestReaderAsGenerator(t *testing.T) {
	events := []Event{
		{Kind: Load, PC: 4, Addr: 64},
		{Kind: Instr, N: 3},
	}
	r := roundTrip(t, "gen", events)
	tr := Capture(r)
	if tr.Name() != "gen" || len(tr.Events) != 2 {
		t.Fatalf("capture: name=%q events=%d", tr.Name(), len(tr.Events))
	}
}

func TestDecodeBadMagic(t *testing.T) {
	_, err := NewReader(bytes.NewReader([]byte("XXXX\x01\x00")))
	if !errors.Is(err, ErrBadTrace) {
		t.Errorf("err = %v, want ErrBadTrace", err)
	}
}

func TestDecodeBadVersion(t *testing.T) {
	_, err := NewReader(bytes.NewReader([]byte("CBWT\x7f\x00")))
	if !errors.Is(err, ErrBadTrace) {
		t.Errorf("err = %v, want ErrBadTrace", err)
	}
}

func TestDecodeTruncated(t *testing.T) {
	var buf bytes.Buffer
	w, err := NewWriter(&buf, "trunc")
	if err != nil {
		t.Fatal(err)
	}
	w.ConsumeBatch([]Event{{Kind: Load, PC: 1, Addr: 64}})
	if err := w.Close(); err != nil {
		t.Fatal(err)
	}
	// Chop off the terminator and part of the last event.
	raw := buf.Bytes()[:buf.Len()-3]
	r, err := NewReader(bytes.NewReader(raw))
	if err != nil {
		t.Fatal(err)
	}
	if err := r.DecodeBatches(New("sink")); !errors.Is(err, ErrBadTrace) {
		t.Errorf("DecodeBatches err = %v, want ErrBadTrace", err)
	}
}

func TestDecodeUnknownKind(t *testing.T) {
	var buf bytes.Buffer
	w, err := NewWriter(&buf, "x")
	if err != nil {
		t.Fatal(err)
	}
	if err := w.Close(); err != nil {
		t.Fatal(err)
	}
	raw := buf.Bytes()
	raw[len(raw)-1] = 0x77 // replace EOF marker with a bogus kind
	raw = append(raw, 0xFF)
	r, err := NewReader(bytes.NewReader(raw))
	if err != nil {
		t.Fatal(err)
	}
	if err := r.DecodeBatches(New("sink")); !errors.Is(err, ErrBadTrace) {
		t.Errorf("DecodeBatches err = %v, want ErrBadTrace", err)
	}
}

func TestWriterRejectsUnknownKind(t *testing.T) {
	var buf bytes.Buffer
	w, err := NewWriter(&buf, "x")
	if err != nil {
		t.Fatal(err)
	}
	w.ConsumeBatch([]Event{{Kind: Kind(200)}})
	if err := w.Close(); err == nil {
		t.Error("expected Close to report the encoding error")
	}
}

// rawStream builds a header for name "x" followed by the given body
// bytes and an EOF terminator, bypassing the Writer's validation.
func rawStream(body ...byte) []byte {
	stream := []byte("CBWT\x01\x01x")
	stream = append(stream, body...)
	return append(stream, kindEOF)
}

// TestDecodeRejectsUnboundedFields pins the decoder's field bounds:
// uvarint values beyond the shared caps (or a branch outcome other than
// 0/1) are a malformed stream, not a giant event. Unchecked, an
// Instr.N or Block near 2^64 would wrap through int into garbage
// (negative counts, bogus block IDs) on 32-bit builds.
func TestDecodeRejectsUnboundedFields(t *testing.T) {
	huge := binary.AppendUvarint(nil, uint64(MaxInstrCount)+1)
	cases := map[string][]byte{
		"instr-count":    rawStream(append([]byte{byte(Instr)}, huge...)...),
		"instr-wrap":     rawStream(append([]byte{byte(Instr)}, 0xFF, 0xFF, 0xFF, 0xFF, 0xFF, 0xFF, 0xFF, 0xFF, 0xFF, 0x01)...),
		"block-begin-id": rawStream(append([]byte{byte(BlockBegin)}, binary.AppendUvarint(nil, uint64(MaxBlockID)+1)...)...),
		"block-end-id":   rawStream(append([]byte{byte(BlockEnd)}, 0xFF, 0xFF, 0xFF, 0xFF, 0xFF, 0xFF, 0xFF, 0xFF, 0xFF, 0x01)...),
		"branch-outcome": rawStream(byte(Branch), 0x00, 0x02),
	}
	for name, stream := range cases {
		r, err := NewReader(bytes.NewReader(stream))
		if err != nil {
			t.Fatalf("%s: header rejected: %v", name, err)
		}
		if err := r.DecodeBatches(New("sink")); !errors.Is(err, ErrBadTrace) {
			t.Errorf("%s: DecodeBatches err = %v, want ErrBadTrace", name, err)
		}
	}
}

// TestDecodeAcceptsBoundaryFields checks the caps are inclusive: the
// largest legal values decode cleanly.
func TestDecodeAcceptsBoundaryFields(t *testing.T) {
	events := []Event{
		{Kind: Instr, N: MaxInstrCount},
		{Kind: BlockBegin, Block: MaxBlockID},
		{Kind: BlockEnd, Block: MaxBlockID},
	}
	r := roundTrip(t, "bounds", events)
	var tr Trace
	if err := r.DecodeBatches(&tr); err != nil {
		t.Fatalf("DecodeBatches: %v", err)
	}
	got := tr.Events
	if len(got) != len(events) {
		t.Fatalf("decoded %d events, want %d", len(got), len(events))
	}
	for i := range events {
		if got[i] != events[i] {
			t.Errorf("event %d: got %+v, want %+v", i, got[i], events[i])
		}
	}
}

// TestWriterRejectsOutOfRangeFields mirrors the decoder bounds on the
// encode side, keeping the codec closed: everything the writer accepts,
// the reader accepts back.
func TestWriterRejectsOutOfRangeFields(t *testing.T) {
	for name, e := range map[string]Event{
		"instr-count":    {Kind: Instr, N: MaxInstrCount + 1},
		"block-negative": {Kind: BlockBegin, Block: -1},
		"block-huge":     {Kind: BlockEnd, Block: MaxBlockID + 1},
	} {
		var buf bytes.Buffer
		w, err := NewWriter(&buf, "x")
		if err != nil {
			t.Fatal(err)
		}
		w.ConsumeBatch([]Event{e})
		if err := w.Close(); err == nil {
			t.Errorf("%s: expected Close to report the encoding error", name)
		}
	}
}

func TestCompactEncoding(t *testing.T) {
	// Strided streams should delta-encode to a few bytes per event.
	var buf bytes.Buffer
	w, err := NewWriter(&buf, "stride")
	if err != nil {
		t.Fatal(err)
	}
	const n = 10000
	for i := 0; i < n; i++ {
		w.ConsumeBatch([]Event{{Kind: Load, PC: 0x400100, Addr: mem.Addr(1<<30 + i*64)}})
	}
	if err := w.Close(); err != nil {
		t.Fatal(err)
	}
	if perEvent := float64(buf.Len()) / n; perEvent > 4.5 {
		t.Errorf("strided stream encodes to %.1f bytes/event, want <= 4.5", perEvent)
	}
}

// TestNameLengthBound pins the header name bound both ways: NewWriter
// refuses a name the decoder would reject, and a name of exactly
// MaxNameLen bytes round-trips through Reader and ChunkDecoder.
func TestNameLengthBound(t *testing.T) {
	if _, err := NewWriter(io.Discard, strings.Repeat("n", MaxNameLen+1)); err == nil {
		t.Errorf("NewWriter accepted a %d-byte name", MaxNameLen+1)
	}
	name := strings.Repeat("n", MaxNameLen)
	events := streamTestEvents()
	r := roundTrip(t, name, events)
	if r.Name() != name {
		t.Errorf("Reader name has %d bytes, want %d", len(r.Name()), len(name))
	}
	got, gotName, err := feedInChunks(encodeTestTrace(t, name, events), 4096)
	if err != nil {
		t.Fatal(err)
	}
	if gotName != name {
		t.Errorf("ChunkDecoder name has %d bytes, want %d", len(gotName), len(name))
	}
	if len(got) != len(events) {
		t.Errorf("decoded %d events, want %d", len(got), len(events))
	}
}
