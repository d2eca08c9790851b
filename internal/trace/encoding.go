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
	err      error
}

// encodeWindow is the number of events encoded into the Writer's
// scratch before it is handed to the bufio.Writer. With maxEventBytes
// it bounds the scratch, so a producer that delivers a whole captured
// trace as one batch costs no more memory than one fed by a Batcher.
const encodeWindow = 1024

// NewWriter writes the file header (with the trace name) and returns a
// Writer ready to receive events.
func NewWriter(w io.Writer, name string) (*Writer, error) {
	hdr := make([]byte, 0, encodeWindow*maxEventBytes)
	hdr = append(hdr, traceMagic...)
	hdr = append(hdr, traceVersion)
	hdr = binary.AppendUvarint(hdr, uint64(len(name)))
	hdr = append(hdr, name...)
	bw := bufio.NewWriter(w)
	if _, err := bw.Write(hdr); err != nil {
		return nil, err
	}
	return &Writer{w: bw, buf: hdr[:0]}, nil
}

// appendEvent appends the encoding of one event to dst.
func (w *Writer) appendEvent(dst []byte, e *Event) ([]byte, error) {
	dst = append(dst, byte(e.Kind))
	switch e.Kind {
	case Instr:
		if e.N > MaxInstrCount {
			return dst, fmt.Errorf("trace: instr count %d exceeds %d", e.N, MaxInstrCount)
		}
		dst = binary.AppendUvarint(dst, uint64(e.Count()))
	case Load, Store:
		dst = binary.AppendVarint(dst, int64(e.PC)-int64(w.lastPC))
		dst = binary.AppendVarint(dst, int64(e.Addr)-int64(w.lastAddr))
		w.lastPC = e.PC
		w.lastAddr = uint64(e.Addr)
	case BlockBegin, BlockEnd:
		if e.Block < 0 || e.Block > MaxBlockID {
			return dst, fmt.Errorf("trace: block ID %d out of range [0, %d]", e.Block, MaxBlockID)
		}
		dst = binary.AppendUvarint(dst, uint64(e.Block))
	case Branch:
		dst = binary.AppendVarint(dst, int64(e.PC)-int64(w.lastPC))
		w.lastPC = e.PC
		t := byte(0)
		if e.Taken {
			t = 1
		}
		dst = append(dst, t)
	default:
		return dst, fmt.Errorf("trace: cannot encode kind %v", e.Kind)
	}
	return dst, nil
}

// ConsumeBatch implements BatchSink. The batch is encoded a window at a
// time into the Writer's own scratch, which goes to the bufio.Writer in
// one call. Encoding errors are sticky; a stuck writer asks the
// producer to stop instead of silently chewing through the rest of the
// stream.
func (w *Writer) ConsumeBatch(batch []Event) bool {
	for len(batch) > 0 && w.err == nil {
		win := batch[:min(len(batch), encodeWindow)]
		batch = batch[len(win):]
		buf := w.buf[:0]
		for i := range win {
			if buf, w.err = w.appendEvent(buf, &win[i]); w.err != nil {
				break
			}
		}
		w.buf = buf
		if _, err := w.w.Write(buf); w.err == nil {
			w.err = err
		}
	}
	return w.err == nil
}

// Close terminates the stream and flushes buffered data.
func (w *Writer) Close() error {
	if w.err != nil {
		return w.err
	}
	if err := w.w.WriteByte(kindEOF); err != nil {
		return err
	}
	return w.w.Flush()
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

// NewReader validates the header and returns a Reader.
func NewReader(r io.Reader) (*Reader, error) {
	rd := &Reader{r: r, buf: make([]byte, readChunk)}
	for {
		n, err := r.Read(rd.buf)
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
			return nil, fmt.Errorf("%w: %v", ErrBadTrace, err)
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
		n, err := r.r.Read(r.buf)
		if ferr := r.dec.Feed(r.buf[:n], sink); ferr != nil {
			return ferr
		}
		if err == io.EOF {
			return r.dec.Finish()
		}
		if err != nil {
			return fmt.Errorf("%w: %v", ErrBadTrace, err)
		}
	}
	return nil
}
