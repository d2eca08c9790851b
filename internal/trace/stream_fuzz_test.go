package trace

import (
	"bytes"
	"errors"
	"io"
	"testing"
	"testing/iotest"
)

// decoded is what one decode path made of a byte stream.
type decoded struct {
	events []Event
	name   string
	err    error
}

// feedAll decodes data through a ChunkDecoder fed size-byte windows.
func feedAll(data []byte, size int) decoded {
	events, name, err := feedInChunks(data, size)
	return decoded{events, name, err}
}

// readAll decodes src through NewReader and DecodeBatches.
func readAll(src io.Reader) decoded {
	r, err := NewReader(src)
	if err != nil {
		return decoded{err: err}
	}
	var out Trace
	err = r.DecodeBatches(&out)
	return decoded{out.Events, r.Name(), err}
}

// FuzzStreamChunkFraming is the chunk-framing differential: arbitrary
// bytes fed to a ChunkDecoder in arbitrary chunk sizes must decode
// exactly like one whole-buffer Feed of the same bytes, and so must a
// Reader pulling them through one-byte and half-size reads — same
// events, same name, same accept/reject verdict, every error wrapping
// ErrBadTrace, and never a panic. This is the invariant the streaming
// ingest endpoint relies on: a client's chunk boundaries cannot change
// what simulates, and truncation or corruption surfaces as a clean
// decode error (HTTP 400), never a crash.
func FuzzStreamChunkFraming(f *testing.F) {
	valid := encodeTestTrace(f, "seed", streamTestEvents())
	f.Add(valid, uint16(1))
	f.Add(valid, uint16(7))
	f.Add(valid[:len(valid)-3], uint16(4)) // truncated mid-stream
	f.Add([]byte("CBWT\x01\x04name"), uint16(2))
	f.Add([]byte("CBWT\x02\x00\xFF"), uint16(3)) // bad version
	f.Add(append(valid, 0xAB, 0xCD), uint16(5))  // trailing garbage
	f.Add([]byte{}, uint16(1))

	f.Fuzz(func(t *testing.T, data []byte, chunk uint16) {
		size := int(chunk)%97 + 1
		want := feedAll(data, len(data)+1)
		paths := map[string]decoded{
			"chunked":       feedAll(data, size),
			"one-byte read": readAll(iotest.OneByteReader(bytes.NewReader(data))),
			"half read":     readAll(iotest.HalfReader(bytes.NewReader(data))),
		}
		if want.err != nil && !errors.Is(want.err, ErrBadTrace) {
			t.Fatalf("whole feed: error %v does not wrap ErrBadTrace", want.err)
		}
		for path, got := range paths {
			if (want.err == nil) != (got.err == nil) {
				t.Fatalf("size=%d %s: verdict mismatch: err=%v, whole feed err=%v", size, path, got.err, want.err)
			}
			if got.err != nil && !errors.Is(got.err, ErrBadTrace) {
				t.Fatalf("size=%d %s: error %v does not wrap ErrBadTrace", size, path, got.err)
			}
			if got.name != want.name {
				t.Fatalf("size=%d %s: name %q, want %q", size, path, got.name, want.name)
			}
			if len(got.events) != len(want.events) {
				t.Fatalf("size=%d %s: %d events, want %d", size, path, len(got.events), len(want.events))
			}
			for i := range got.events {
				if got.events[i] != want.events[i] {
					t.Fatalf("size=%d %s event %d: %+v != %+v", size, path, i, got.events[i], want.events[i])
				}
			}
		}
	})
}
