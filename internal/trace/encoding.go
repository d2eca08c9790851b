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
	lastPC   uint64
	lastAddr uint64
	err      error
}

// NewWriter writes the file header (with the trace name) and returns a
// Writer ready to receive events.
func NewWriter(w io.Writer, name string) (*Writer, error) {
	bw := bufio.NewWriter(w)
	if _, err := bw.WriteString(traceMagic); err != nil {
		return nil, err
	}
	if err := bw.WriteByte(traceVersion); err != nil {
		return nil, err
	}
	var buf [binary.MaxVarintLen64]byte
	n := binary.PutUvarint(buf[:], uint64(len(name)))
	if _, err := bw.Write(buf[:n]); err != nil {
		return nil, err
	}
	if _, err := bw.WriteString(name); err != nil {
		return nil, err
	}
	return &Writer{w: bw}, nil
}

func (w *Writer) putUvarint(v uint64) {
	if w.err != nil {
		return
	}
	var buf [binary.MaxVarintLen64]byte
	n := binary.PutUvarint(buf[:], v)
	_, w.err = w.w.Write(buf[:n])
}

func (w *Writer) putVarint(v int64) {
	if w.err != nil {
		return
	}
	var buf [binary.MaxVarintLen64]byte
	n := binary.PutVarint(buf[:], v)
	_, w.err = w.w.Write(buf[:n])
}

// encode encodes one event. Errors are sticky and reported by Close.
func (w *Writer) encode(e Event) {
	w.err = w.w.WriteByte(byte(e.Kind))
	switch e.Kind {
	case Instr:
		if e.N > MaxInstrCount {
			w.err = fmt.Errorf("trace: instr count %d exceeds %d", e.N, MaxInstrCount)
			return
		}
		w.putUvarint(uint64(e.Count()))
	case Load, Store:
		w.putVarint(int64(e.PC) - int64(w.lastPC))
		w.putVarint(int64(e.Addr) - int64(w.lastAddr))
		w.lastPC = e.PC
		w.lastAddr = uint64(e.Addr)
	case BlockBegin, BlockEnd:
		if e.Block < 0 || e.Block > MaxBlockID {
			w.err = fmt.Errorf("trace: block ID %d out of range [0, %d]", e.Block, MaxBlockID)
			return
		}
		w.putUvarint(uint64(e.Block))
	case Branch:
		w.putVarint(int64(e.PC) - int64(w.lastPC))
		w.lastPC = e.PC
		t := uint64(0)
		if e.Taken {
			t = 1
		}
		w.putUvarint(t)
	default:
		w.err = fmt.Errorf("trace: cannot encode kind %v", e.Kind)
	}
}

// ConsumeBatch implements BatchSink. Encoding errors are sticky; a
// stuck writer asks the producer to stop instead of silently chewing
// through the rest of the stream.
func (w *Writer) ConsumeBatch(batch []Event) bool {
	for i := range batch {
		if w.err != nil {
			return false
		}
		w.encode(batch[i])
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
