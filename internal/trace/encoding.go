package trace

import (
	"bufio"
	"encoding/binary"
	"errors"
	"fmt"
	"io"
)

// Binary trace file format:
//
//	magic "CBWT" | version u8 | name len uvarint | name bytes
//	then per event: kind u8 followed by kind-specific uvarint fields.
//	PC and Addr are delta-encoded against the previous Load/Store event
//	(zigzag varint), which keeps strided streams near 2 bytes/event.
//	A trailing kind byte 0xFF terminates the stream.

const (
	traceMagic   = "CBWT"
	traceVersion = 1
	kindEOF      = 0xFF
)

// ErrBadTrace reports a malformed trace file.
var ErrBadTrace = errors.New("trace: malformed trace file")

// Writer encodes events to an io.Writer in the binary trace format.
type Writer struct {
	w        *bufio.Writer
	buf      []byte // one window's encoding, reused across batches
	lastPC   uint64
	lastAddr uint64
	err      error // sticky encode or write error
	closed   bool
}

// encodeWindow is the number of events encoded into the Writer's
// scratch before it is handed to the bufio.Writer. With maxEventBytes
// it bounds the scratch, so a producer that delivers a whole captured
// trace as one batch costs no more memory than one fed by a Batcher.
const encodeWindow = 1024

// NewWriter writes the file header (with the trace name, at most
// MaxNameLen bytes) and returns a Writer ready to receive events.
func NewWriter(w io.Writer, name string) (*Writer, error) {
	if len(name) > MaxNameLen {
		return nil, fmt.Errorf("trace: name too long (%d bytes)", len(name))
	}
	hdr := make([]byte, 0, encodeWindow*maxEventBytes)
	hdr = append(hdr, traceMagic...)
	hdr = append(hdr, traceVersion)
	hdr = binary.AppendUvarint(hdr, uint64(len(name)))
	hdr = append(hdr, name...)
	bw := bufio.NewWriter(w)
	if _, err := bw.Write(hdr); err != nil {
		return nil, err
	}
	return &Writer{w: bw, buf: hdr[:cap(hdr)]}, nil
}

// Zigzag maps a signed delta onto the unsigned space so that small
// magnitudes of either sign take short uvarints; binary.PutVarint
// uses the same mapping. Both trace codecs encode PC and address
// deltas this way.
//
//cbws:hotpath
func Zigzag(v int64) uint64 { return uint64(v<<1) ^ uint64(v>>63) }

// PutUvarint writes v as a uvarint into buf at offset n and returns
// the offset past it, like binary.PutUvarint(buf[n:], v) + n. The
// caller sizes buf: binary.MaxVarintLen64 bytes past n always suffice.
// Both trace codecs' encode kernels write through it.
//
//cbws:hotpath
func PutUvarint(buf []byte, n int, v uint64) int {
	for v >= 0x80 {
		buf[n] = byte(v) | 0x80
		v >>= 7
		n++
	}
	buf[n] = byte(v)
	return n + 1
}

// ConsumeBatch implements BatchSink. The batch is encoded a window at a
// time into the Writer's own scratch, which goes to the bufio.Writer in
// one call. Encoding errors are sticky; a stuck writer asks the
// producer to stop instead of silently chewing through the rest of the
// stream. A closed Writer encodes nothing and reports false.
func (w *Writer) ConsumeBatch(batch []Event) bool {
	for len(batch) > 0 && w.err == nil && !w.closed {
		win := batch[:min(len(batch), encodeWindow)]
		batch = batch[len(win):]
		n := w.encode(win)
		if _, err := w.w.Write(w.buf[:n]); w.err == nil {
			w.err = err
		}
	}
	return w.err == nil && !w.closed
}

// encode is the Writer's kernel: it writes win, at most encodeWindow
// events, into the scratch by index and returns the encoding's length.
// Every event takes at most maxEventBytes, which is what the scratch
// holds per window slot. The delta baselines stay in locals and are
// stored back once; an event that cannot be encoded stops the window
// with a sticky error, and only the events before it are returned.
func (w *Writer) encode(win []Event) int {
	buf := w.buf
	lastPC, lastAddr := w.lastPC, w.lastAddr
	n := 0
kernel:
	for i := range win {
		e := &win[i]
		switch e.Kind {
		case Instr:
			if e.N > MaxInstrCount {
				w.err = encodeErr(e)
				break kernel
			}
			buf[n] = byte(Instr)
			n = PutUvarint(buf, n+1, uint64(max(e.N, 1))) // Event.Count of an Instr
		case Load, Store:
			buf[n] = byte(e.Kind)
			n = PutUvarint(buf, n+1, Zigzag(int64(e.PC-lastPC)))
			n = PutUvarint(buf, n, Zigzag(int64(uint64(e.Addr)-lastAddr)))
			lastPC, lastAddr = e.PC, uint64(e.Addr)
		case BlockBegin, BlockEnd:
			if uint(e.Block) > MaxBlockID {
				w.err = encodeErr(e)
				break kernel
			}
			buf[n] = byte(e.Kind)
			n = PutUvarint(buf, n+1, uint64(e.Block))
		case Branch:
			buf[n] = byte(Branch)
			n = PutUvarint(buf, n+1, Zigzag(int64(e.PC-lastPC)))
			lastPC = e.PC
			buf[n] = 0
			if e.Taken {
				buf[n] = 1
			}
			n++
		default:
			w.err = encodeErr(e)
			break kernel
		}
	}
	w.lastPC, w.lastAddr = lastPC, lastAddr
	return n
}

// encodeErr explains why the kernel rejected e: an Instr count above
// MaxInstrCount, a block ID outside [0, MaxBlockID], or a kind the
// format has no record for.
func encodeErr(e *Event) error {
	switch e.Kind {
	case Instr:
		return fmt.Errorf("trace: instr count %d exceeds %d", e.N, MaxInstrCount)
	case BlockBegin, BlockEnd:
		return fmt.Errorf("trace: block ID %d out of range [0, %d]", e.Block, MaxBlockID)
	}
	return fmt.Errorf("trace: cannot encode kind %v", e.Kind)
}

// Close terminates the stream and flushes buffered data. It returns
// the sticky error if encoding failed, and writes nothing then. Close
// is idempotent: a repeated call writes nothing and returns the first
// call's result.
func (w *Writer) Close() error {
	if !w.closed {
		w.closed = true
		if w.err == nil {
			w.err = w.w.WriteByte(kindEOF)
		}
		if w.err == nil {
			w.err = w.w.Flush()
		}
	}
	return w.err
}

// readChunk is the size of the windows Reader pulls from its source
// and feeds to the ChunkDecoder.
const readChunk = 32 << 10

// Reader decodes a binary trace file. It implements Generator so a trace
// file can be fed straight into the simulator. It is a thin read loop
// around a ChunkDecoder, the format's only event decoder.
type Reader struct {
	r    io.Reader
	dec  ChunkDecoder
	buf  []byte
	rest []byte // bytes read past the header, decoded first
}

// maxEmptyReads is how many consecutive (0, nil) reads Reader takes
// from its source before it gives up with io.ErrNoProgress, as bufio
// does, instead of spinning forever.
const maxEmptyReads = 100

// read fills r.buf from the source, skipping up to maxEmptyReads
// consecutive empty reads.
func (r *Reader) read() (int, error) {
	for range maxEmptyReads {
		if n, err := r.r.Read(r.buf); n > 0 || err != nil {
			return n, err
		}
	}
	return 0, io.ErrNoProgress
}

// NewReader validates the header and returns a Reader.
func NewReader(r io.Reader) (*Reader, error) {
	rd := &Reader{r: r, buf: make([]byte, readChunk)}
	for {
		n, err := rd.read()
		rest, herr := rd.dec.feedHeader(rd.buf[:n])
		if herr != nil {
			return nil, herr
		}
		if _, ok := rd.dec.Name(); ok {
			rd.rest = rest
			return rd, nil
		}
		if err == io.EOF {
			err = io.ErrUnexpectedEOF
		}
		if err != nil {
			return nil, fmt.Errorf("%w: %w", ErrBadTrace, err)
		}
	}
}

// Name returns the trace name recorded in the file header.
func (r *Reader) Name() string { return r.dec.name }

// GenerateBatches implements Generator. Decoding errors end the stream
// early; use DecodeBatches for explicit errors.
func (r *Reader) GenerateBatches(sink BatchSink) {
	_ = r.DecodeBatches(sink)
}

// DecodeBatches decodes events into sink in batches and returns the
// first error. Events decoded before an error are still delivered, and
// decoding stops early (without error) once the sink requests a stop.
// A stream that ends without its terminator is malformed.
func (r *Reader) DecodeBatches(sink BatchSink) error {
	if err := r.dec.Feed(r.rest, sink); err != nil {
		return err
	}
	r.rest = nil
	for !r.dec.Terminated() {
		n, err := r.read()
		if ferr := r.dec.Feed(r.buf[:n], sink); ferr != nil {
			return ferr
		}
		if err == io.EOF {
			return r.dec.Finish()
		}
		if err != nil {
			return fmt.Errorf("%w: %w", ErrBadTrace, err)
		}
	}
	return nil
}
