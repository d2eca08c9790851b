package trace

import (
	"bytes"
	"errors"
	"testing"
)

// encodeTestTrace returns the CBWT encoding of events under the given
// trace name.
func encodeTestTrace(t testing.TB, name string, events []Event) []byte {
	t.Helper()
	var buf bytes.Buffer
	w, err := NewWriter(&buf, name)
	if err != nil {
		t.Fatal(err)
	}
	w.ConsumeBatch(events)
	if err := w.Close(); err != nil {
		t.Fatal(err)
	}
	return buf.Bytes()
}

// streamTestEvents is a small stream exercising every event kind, with
// PC/Addr values that force multi-byte delta varints.
func streamTestEvents() []Event {
	return []Event{
		{Kind: BlockBegin, Block: 7},
		{Kind: Load, PC: 0x400000, Addr: 0x7fff_0000_1234},
		{Kind: Store, PC: 0x400008, Addr: 0x10},
		{Kind: Branch, PC: 0x400010, Taken: true},
		{Kind: Instr, N: 12345},
		{Kind: Load, PC: 0x400000, Addr: 0x7fff_0000_1240},
		{Kind: Branch, PC: 0x400018, Taken: false},
		{Kind: BlockEnd, Block: 7},
		{Kind: Instr, N: 1},
	}
}

// feedInChunks drives a ChunkDecoder over data split into fixed-size
// chunks and returns the decoded events plus the Feed/Finish error.
func feedInChunks(data []byte, chunk int) ([]Event, string, error) {
	var (
		d   ChunkDecoder
		out Trace
	)
	for len(data) > 0 {
		n := chunk
		if n > len(data) {
			n = len(data)
		}
		if err := d.Feed(data[:n], &out); err != nil {
			return out.Events, d.name, err
		}
		data = data[n:]
	}
	return out.Events, d.name, d.Finish()
}

// TestChunkDecoderEverySplit decodes the same trace at every chunk size
// from 1 byte upward and requires the exact encoded event sequence,
// regardless of where the chunk boundaries land.
func TestChunkDecoderEverySplit(t *testing.T) {
	want := streamTestEvents()
	data := encodeTestTrace(t, "split-test", want)

	for chunk := 1; chunk <= len(data); chunk++ {
		got, name, err := feedInChunks(data, chunk)
		if err != nil {
			t.Fatalf("chunk=%d: %v", chunk, err)
		}
		if name != "split-test" {
			t.Fatalf("chunk=%d: name %q", chunk, name)
		}
		if len(got) != len(want) {
			t.Fatalf("chunk=%d: %d events, want %d", chunk, len(got), len(want))
		}
		for i := range got {
			if got[i] != want[i] {
				t.Fatalf("chunk=%d event %d: %+v != %+v", chunk, i, got[i], want[i])
			}
		}
	}
}

// TestChunkDecoderTrailingBytes checks bytes after the terminator are
// ignored.
func TestChunkDecoderTrailingBytes(t *testing.T) {
	data := encodeTestTrace(t, "trail", streamTestEvents())
	data = append(data, []byte("garbage after terminator")...)
	got, _, err := feedInChunks(data, 3)
	if err != nil {
		t.Fatal(err)
	}
	if len(got) != len(streamTestEvents()) {
		t.Fatalf("got %d events, want %d", len(got), len(streamTestEvents()))
	}
	var d ChunkDecoder
	var out Trace
	if err := d.Feed(data, &out); err != nil {
		t.Fatal(err)
	}
	if !d.Terminated() {
		t.Fatal("Terminated() = false after terminator")
	}
	// A whole chunk arriving after termination is a no-op too.
	if err := d.Feed([]byte{0x01, 0x02, 0x03}, &out); err != nil {
		t.Fatal(err)
	}
}

// TestChunkDecoderTruncated checks Finish rejects a stream cut off
// before the terminator — both mid-event and at an event boundary.
func TestChunkDecoderTruncated(t *testing.T) {
	data := encodeTestTrace(t, "trunc", streamTestEvents())
	for _, cut := range []int{len(data) - 1, len(data) - 2, len(data) / 2} {
		var d ChunkDecoder
		var out Trace
		if err := d.Feed(data[:cut], &out); err != nil {
			t.Fatalf("cut=%d: unexpected feed error %v", cut, err)
		}
		if err := d.Finish(); !errors.Is(err, ErrBadTrace) {
			t.Fatalf("cut=%d: Finish = %v, want ErrBadTrace", cut, err)
		}
	}
}

// TestChunkDecoderMalformed checks corrupted inputs surface ErrBadTrace
// (sticky) rather than panicking or decoding garbage.
func TestChunkDecoderMalformed(t *testing.T) {
	cases := map[string][]byte{
		"bad magic":    []byte("XXXX\x01\x00\xFF"),
		"bad version":  []byte("CBWT\x07\x00\xFF"),
		"unknown kind": append([]byte("CBWT\x01\x00"), 0x60, 0xFF),
		"branch taken 2": append(encodeHeader("b"),
			byte(Branch), 0x02, 0x02, // dpc=1, taken=2
			0xFF),
		"oversized varint": append(encodeHeader("v"),
			byte(Instr), 0x80, 0x80, 0x80, 0x80, 0x80, 0x80, 0x80, 0x80, 0x80, 0x80, 0x01,
			0xFF),
	}
	for name, data := range cases {
		for chunk := 1; chunk <= len(data); chunk++ {
			_, _, err := feedInChunks(data, chunk)
			if !errors.Is(err, ErrBadTrace) {
				t.Fatalf("%s chunk=%d: err = %v, want ErrBadTrace", name, chunk, err)
			}
		}
		// Sticky: feeding more after the error re-reports it.
		var d ChunkDecoder
		var out Trace
		_ = d.Feed(data, &out)
		if err := d.Feed([]byte{0xFF}, &out); !errors.Is(err, ErrBadTrace) {
			t.Fatalf("%s: error not sticky: %v", name, err)
		}
	}
}

// encodeHeader returns just the CBWT header for a named trace.
func encodeHeader(name string) []byte {
	var buf bytes.Buffer
	w, err := NewWriter(&buf, name)
	if err != nil {
		panic(err)
	}
	if err := w.Close(); err != nil {
		panic(err)
	}
	b := buf.Bytes()
	return b[:len(b)-1] // drop the terminator Close appended
}

// TestChunkDecoderPartialEventsDelivered checks events decoded before a
// malformed record are still delivered.
func TestChunkDecoderPartialEventsDelivered(t *testing.T) {
	data := append(encodeHeader("p"),
		byte(Instr), 0x05,
		byte(BlockBegin), 0x03,
		0x60, // unknown kind
	)
	var d ChunkDecoder
	var out Trace
	err := d.Feed(data, &out)
	if !errors.Is(err, ErrBadTrace) {
		t.Fatalf("err = %v, want ErrBadTrace", err)
	}
	if len(out.Events) != 2 {
		t.Fatalf("delivered %d events before error, want 2", len(out.Events))
	}
}

// TestChunkDecoderSinkStop checks a sink stop discards the remainder
// without error.
func TestChunkDecoderSinkStop(t *testing.T) {
	var events []Event
	for i := 0; i < 4*batchSize; i++ {
		events = append(events, Event{Kind: Instr, N: 1})
	}
	data := encodeTestTrace(t, "stop", events)

	seen := 0
	stopper := batchSinkFunc(func(batch []Event) bool {
		seen += len(batch)
		return false // stop after the first batch
	})
	var d ChunkDecoder
	if err := d.Feed(data, stopper); err != nil {
		t.Fatal(err)
	}
	if seen != batchSize {
		t.Fatalf("saw %d events after stop, want %d", seen, batchSize)
	}
	if !d.Terminated() {
		t.Fatal("sink stop should terminate the decoder")
	}
	if err := d.Finish(); err != nil {
		t.Fatalf("Finish after sink stop: %v", err)
	}
}

type batchSinkFunc func([]Event) bool

func (f batchSinkFunc) ConsumeBatch(batch []Event) bool { return f(batch) }

// TestChunkDecoderAtEventBoundary pins the boundary detector used by
// stream finalization.
func TestChunkDecoderAtEventBoundary(t *testing.T) {
	data := encodeTestTrace(t, "bound", streamTestEvents())
	var d ChunkDecoder
	var out Trace

	full := data[:len(data)-1] // header + whole events, no terminator
	if err := d.Feed(full, &out); err != nil {
		t.Fatal(err)
	}
	if !d.AtEventBoundary() {
		t.Fatal("complete events without terminator should be at a boundary")
	}

	var d2 ChunkDecoder
	if err := d2.Feed(data[:len(data)-2], &out); err != nil {
		t.Fatal(err)
	}
	if d2.AtEventBoundary() {
		t.Fatal("mid-event cut should not be at a boundary")
	}
}

// TestChunkDecoderFeedAllocs pins the steady-state Feed path at zero
// allocations: once the header is parsed, chunk ingest must not allocate
// no matter how chunks split events.
func TestChunkDecoderFeedAllocs(t *testing.T) {
	events := []Event{
		{Kind: BlockBegin, Block: 3},
		{Kind: Load, PC: 0x400000, Addr: 0x1000},
		{Kind: Instr, N: 64},
		{Kind: Store, PC: 0x400008, Addr: 0x2040},
		{Kind: Branch, PC: 0x400010, Taken: true},
		{Kind: BlockEnd, Block: 3},
	}
	var buf bytes.Buffer
	w, err := NewWriter(&buf, "allocs")
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 64; i++ {
		w.ConsumeBatch(events)
	}
	// No terminator: the decoder must stay in the event phase so the
	// same bytes can be fed repeatedly.
	if err := w.w.Flush(); err != nil {
		t.Fatal(err)
	}
	data := buf.Bytes()

	var d ChunkDecoder
	sink := batchSinkFunc(func([]Event) bool { return true })
	// Parse the header (the one allocating step) before measuring.
	head := encodeHeader("allocs")
	if err := d.Feed(data[:len(head)], sink); err != nil {
		t.Fatal(err)
	}
	// Splitting the body anywhere is fine — each run feeds all of it, so
	// every run ends back at an event boundary.
	body := data[len(head):]
	half := len(body) / 2
	allocs := testing.AllocsPerRun(100, func() {
		// Odd split sizes so events straddle the chunk boundary.
		if err := d.Feed(body[:half], sink); err != nil {
			t.Fatal(err)
		}
		if err := d.Feed(body[half:], sink); err != nil {
			t.Fatal(err)
		}
	})
	if allocs != 0 {
		t.Fatalf("Feed allocates %v per run, want 0", allocs)
	}
}
