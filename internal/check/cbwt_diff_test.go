package check_test

import (
	"bytes"
	"encoding/binary"
	"math"
	"testing"

	"cbws/internal/check"
	"cbws/internal/mem"
	"cbws/internal/trace"
	"cbws/internal/workload"
)

// writeCBWT encodes events through a trace.Writer, handing them over
// in batches that end at the given cuts (ascending; cuts past the end
// are ignored) and then the rest. It returns the stream, the index
// range of the first batch ConsumeBatch refused (lo == hi == -1 if
// none was), and Close's error.
func writeCBWT(t *testing.T, name string, events []trace.Event, cuts []int) (stream []byte, lo, hi int, err error) {
	t.Helper()
	var buf bytes.Buffer
	w, err := trace.NewWriter(&buf, name)
	if err != nil {
		t.Fatal(err)
	}
	lo, hi = -1, -1
	start := 0
	for _, end := range append(cuts, len(events)) {
		if end < start || end > len(events) {
			continue
		}
		if !w.ConsumeBatch(events[start:end]) && lo < 0 {
			lo, hi = start, end
		}
		start = end
	}
	err = w.Close()
	return buf.Bytes(), lo, hi, err
}

// requireCBWTWriterVsRef checks trace.Writer against RefCBWTEncode on
// one event stream cut into batches. An accepted stream must encode to
// the reference's bytes. A rejected one must be rejected at the event
// the reference names, with its error: the events before it encode to
// the reference's bytes, the stream through it fails with the same
// error, and the first batch the writer refuses is the one holding it.
func requireCBWTWriterVsRef(t *testing.T, events []trace.Event, cuts []int) {
	t.Helper()
	want, n, wantErr := check.RefCBWTEncode("ref", events)
	got, lo, hi, err := writeCBWT(t, "ref", events, cuts)
	if wantErr == nil {
		if err != nil || lo >= 0 {
			t.Fatalf("writer refused batch [%d, %d) of %d events (%v); the reference accepts them", lo, hi, len(events), err)
		}
		if !bytes.Equal(got, want) {
			t.Fatalf("%d events: writer wrote %d bytes, reference %d; first difference at byte %d",
				len(events), len(got), len(want), firstDiff(got, want))
		}
		return
	}
	if err == nil || err.Error() != wantErr.Error() {
		t.Fatalf("writer error %v, reference %v at event %d (%+v)", err, wantErr, n, events[n])
	}
	if n < lo || n >= hi {
		t.Fatalf("writer refused batch [%d, %d) first; the reference rejects event %d", lo, hi, n)
	}
	prefix, _, _ := check.RefCBWTEncode("ref", events[:n])
	if got, _, _, err := writeCBWT(t, "ref", events[:n], cuts); err != nil || !bytes.Equal(got, prefix) {
		t.Fatalf("the %d events before the rejected one: writer error %v, bytes differ at %d", n, err, firstDiff(got, prefix))
	}
	if _, _, _, err := writeCBWT(t, "ref", events[:n+1], cuts); err == nil || err.Error() != wantErr.Error() {
		t.Fatalf("the %d events through the rejected one: writer error %v, reference %v", n+1, err, wantErr)
	}
}

// firstDiff returns the first index at which a and b differ.
func firstDiff(a, b []byte) int {
	i := 0
	for i < len(a) && i < len(b) && a[i] == b[i] {
		i++
	}
	return i
}

// cbwtFuzzValue draws a 64-bit operand of the width class picks: one
// byte, two bytes, eight bytes, or a field boundary (0, the caps and
// one past them, -1, and the int64 extremes).
func cbwtFuzzValue(feed *byteFeed, class byte) uint64 {
	switch class {
	case 0:
		return uint64(feed.next())
	case 1:
		return uint64(feed.next())<<8 | uint64(feed.next())
	case 2:
		var b [8]byte
		for i := range b {
			b[i] = feed.next()
		}
		return binary.LittleEndian.Uint64(b[:])
	}
	edges := [...]uint64{0, trace.MaxInstrCount, trace.MaxInstrCount + 1, math.MaxUint64,
		math.MaxInt64, 1 << 63, 1, trace.MaxBlockID - 1}
	return edges[feed.next()%uint8(len(edges))]
}

// decodeCBWTEvents turns fuzz input into an event stream and its batch
// cuts. Each record is an op byte and its operands. The op's bits 0-2
// pick the kind: 6 is an unknown kind and 7 the terminator's byte
// value, both of which the writer must refuse. Bits 3-4 pick the width
// class of the first operand (PC and N; its low bit is the branch
// outcome), bits 5-6 that of the second (address and block ID). Bit 7
// adds a control byte: 0 ends a batch after the event, r > 0 repeats
// the event 8r times (up to 2,040), so short inputs still reach across
// the writer's 1,024-event window.
func decodeCBWTEvents(data []byte) (events []trace.Event, cuts []int) {
	feed := &byteFeed{data: data}
	for feed.pos < len(data) && len(events) < 1<<14 {
		op := feed.next()
		kind := trace.Kind(op & 7)
		if kind == 7 {
			kind = 0xFF
		}
		v := cbwtFuzzValue(feed, op>>3&3)
		u := cbwtFuzzValue(feed, op>>5&3)
		e := trace.Event{Kind: kind, PC: v, N: int(v), Taken: v&1 != 0, Addr: mem.Addr(u), Block: int(u)}
		reps := 1
		if op&0x80 != 0 {
			if r := int(feed.next()); r == 0 {
				cuts = append(cuts, len(events)+1)
			} else {
				reps = 8 * r
			}
		}
		for range reps {
			events = append(events, e)
			e.PC += 4
			e.Addr += 64
		}
	}
	return events, cuts
}

// FuzzCBWTWriterVsRef drives fuzzer-shaped event streams, with
// out-of-range counts and block IDs, unknown kinds and extreme deltas,
// through trace.Writer in fuzzer-chosen batches and through
// RefCBWTEncode.
func FuzzCBWTWriterVsRef(f *testing.F) {
	f.Add([]byte{})
	// begin, load, store, instr, branch (taken), end
	f.Add([]byte{0x03, 0x00, 0x05, 0x01, 0x10, 0x99, 0x02, 0x05, 0x00, 0x00, 0x05, 0x00, 0x05, 0x41, 0x00, 0x04, 0x00, 0x05})
	// 1,152 loads, a branch that ends a batch, 1,152 stores: across windows
	f.Add([]byte{0x81, 0x10, 0x20, 0x90, 0x85, 0x10, 0x00, 0x00, 0x82, 0x40, 0x80, 0x90})
	// instr count MaxInstrCount+1, block ID -1, unknown kind, kind 0xFF
	f.Add([]byte{0x18, 0x02, 0x06, 0x63, 0x02, 0x03, 0x06, 0x00, 0x00, 0x07, 0x00, 0x00})
	// extreme deltas: eight-byte PCs and addresses, both signs
	f.Add([]byte{0x51, 0, 0, 0, 0, 0, 0, 0, 0x80, 0xFF, 0xFF, 0xFF, 0xFF, 0xFF, 0xFF, 0xFF, 0x7F,
		0x51, 0xFF, 0xFF, 0xFF, 0xFF, 0xFF, 0xFF, 0xFF, 0xFF, 0x01, 0, 0, 0, 0, 0, 0, 0x80})
	f.Fuzz(func(t *testing.T, data []byte) {
		events, cuts := decodeCBWTEvents(data)
		requireCBWTWriterVsRef(t, events, cuts)
	})
}

// TestCBWTWriterVsRefWorkloads compares the writer with the reference
// on 200k-instruction captures of every registered workload, in one
// batch and in batches of 1,000 events, which straddle the writer's
// encoding windows.
func TestCBWTWriterVsRefWorkloads(t *testing.T) {
	for _, spec := range workload.All() {
		tr := trace.Capture(trace.Limit{Gen: spec.Make(), Max: 200_000})
		var cuts []int
		for c := 1000; c < len(tr.Events); c += 1000 {
			cuts = append(cuts, c)
		}
		requireCBWTWriterVsRef(t, tr.Events, nil)
		requireCBWTWriterVsRef(t, tr.Events, cuts)
	}
}

// decodeChunked decodes stream through a trace.ChunkDecoder fed size-byte
// windows, then Finish, and returns the name, every event delivered and
// the first error.
func decodeChunked(stream []byte, size int) (string, []trace.Event, error) {
	var d trace.ChunkDecoder
	var out trace.Trace
	err := error(nil)
	for off := 0; off < len(stream) && err == nil; off += size {
		err = d.Feed(stream[off:min(off+size, len(stream))], &out)
	}
	if err == nil {
		err = d.Finish()
	}
	name, _ := d.Name()
	return name, out.Events, err
}

// requireCBWTDecoderVsRef checks trace.ChunkDecoder against
// RefCBWTDecode on one stream fed in windows of size bytes: the same
// name, the same events, and the same error after the same event.
func requireCBWTDecoderVsRef(t *testing.T, stream []byte, size int) {
	t.Helper()
	wantName, want, wantErr := check.RefCBWTDecode(stream)
	name, got, err := decodeChunked(stream, size)
	if (err == nil) != (wantErr == nil) || err != nil && err.Error() != wantErr.Error() {
		t.Fatalf("window %d: decoder error %v after %d events, reference %v after %d", size, err, len(got), wantErr, len(want))
	}
	if name != wantName {
		t.Fatalf("window %d: name %q, reference %q", size, name, wantName)
	}
	if len(got) != len(want) {
		t.Fatalf("window %d: %d events, reference %d", size, len(got), len(want))
	}
	for i := range got {
		if got[i] != want[i] {
			t.Fatalf("window %d: event %d is %+v, reference %+v", size, i, got[i], want[i])
		}
	}
}

// cbwtDecodeSeed is a stream of 40 valid events (loads, stores, block
// markers, instruction counts and branches) followed by tail, and then,
// when tail leaves the stream open, 40 more events, the terminator and
// trailing bytes, so every fault sits inside a window the decoder's
// kernel is running through.
func cbwtDecodeSeed(t testing.TB, tail ...byte) []byte {
	var events []trace.Event
	for i := range 10 {
		events = append(events,
			trace.Event{Kind: trace.BlockBegin, Block: i % 3},
			trace.Event{Kind: trace.Load, PC: 0x400 + uint64(i%2)*8, Addr: mem.Addr(0x10000 + i*4096)},
			trace.Event{Kind: trace.Instr, N: 1 + i*300},
			trace.Event{Kind: trace.Branch, PC: 0x480, Taken: i%2 == 0})
	}
	stream, _, err := check.RefCBWTEncode("seed", events)
	if err != nil {
		t.Fatal(err)
	}
	stream = append(stream[:len(stream)-1], tail...)
	body, _, _ := check.RefCBWTEncode("", events)
	return append(append(stream, body[6:]...), 0xAB, 0xCD, 0xFF, 0x00)
}

// FuzzCBWTDecoderVsRef drives arbitrary bytes, seeded with streams
// that hold non-canonical and overlong varints, out-of-range fields,
// unknown kinds and a terminator inside a window, through
// trace.ChunkDecoder in fuzzer-chosen windows and through
// RefCBWTDecode.
func FuzzCBWTDecoderVsRef(f *testing.F) {
	valid := cbwtDecodeSeed(f)
	f.Add(valid, uint16(0))
	f.Add(valid, uint16(6))
	f.Add(valid[:len(valid)-30], uint16(200)) // truncated mid-stream
	// non-canonical: Instr 0x85 0x00 (5), a load whose deltas take
	// three bytes each, a branch outcome 0x80 0x00 (0)
	f.Add(cbwtDecodeSeed(f, 0x00, 0x85, 0x00, 0x01, 0x80, 0x80, 0x00, 0x82, 0x80, 0x00, 0x05, 0x00, 0x80, 0x00), uint16(300))
	// overlong: an Instr count of eleven bytes, a PC delta of ten
	// whose last byte overflows, and the ten-byte maximum uvarint
	f.Add(cbwtDecodeSeed(f, 0x00, 0x80, 0x80, 0x80, 0x80, 0x80, 0x80, 0x80, 0x80, 0x80, 0x80, 0x00), uint16(300))
	f.Add(cbwtDecodeSeed(f, 0x01, 0xFF, 0xFF, 0xFF, 0xFF, 0xFF, 0xFF, 0xFF, 0xFF, 0xFF, 0x02, 0x00), uint16(300))
	f.Add(cbwtDecodeSeed(f, 0x05, 0xFF, 0xFF, 0xFF, 0xFF, 0xFF, 0xFF, 0xFF, 0xFF, 0xFF, 0x01, 0x00), uint16(300))
	f.Add(cbwtDecodeSeed(f, 0x05, 0x02, 0x02), uint16(300)) // branch outcome 2
	// an Instr count and a block ID one past their caps
	f.Add(cbwtDecodeSeed(f, binary.AppendUvarint([]byte{0x00}, trace.MaxInstrCount+1)...), uint16(300))
	f.Add(cbwtDecodeSeed(f, binary.AppendUvarint([]byte{0x04}, trace.MaxBlockID+1)...), uint16(300))
	f.Add(cbwtDecodeSeed(f, 0x06, 0x00), uint16(300)) // unknown kinds
	f.Add(cbwtDecodeSeed(f, 0x7F, 0x00), uint16(300))
	f.Add(cbwtDecodeSeed(f, 0xFF), uint16(300))  // terminator, then 40 events' bytes
	f.Add([]byte("CBWT\x02\x00\xFF"), uint16(3)) // bad version
	f.Add([]byte("CBWT\x01\x80\x80\x80\x80\x80\x80\x80\x80\x80\x80\x00\xFF"), uint16(3))
	f.Fuzz(func(t *testing.T, data []byte, window uint16) {
		requireCBWTDecoderVsRef(t, data, len(data)+1)
		requireCBWTDecoderVsRef(t, data, int(window)%509+1)
	})
}

// TestCBWTDecoderVsRefWorkloads decodes 200k-instruction CBWT captures
// of every registered workload through the decoder, whole and in 1 KiB
// and 64 KiB windows, and through the reference.
func TestCBWTDecoderVsRefWorkloads(t *testing.T) {
	for _, spec := range workload.All() {
		tr := trace.Capture(trace.Limit{Gen: spec.Make(), Max: 200_000})
		stream, _, err := check.RefCBWTEncode(tr.Name(), tr.Events)
		if err != nil {
			t.Fatal(err)
		}
		for _, size := range []int{len(stream), 1 << 10, 64 << 10} {
			requireCBWTDecoderVsRef(t, stream, size)
		}
	}
}
