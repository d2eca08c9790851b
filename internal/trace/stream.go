package trace

import (
	"encoding/binary"
	"fmt"
	"math/bits"

	"cbws/internal/mem"
)

// ChunkDecoder is the CBWT decoder: it decodes the byte stream fed as
// arbitrary chunks. Chunk boundaries carry no meaning — a varint, an
// event, or even the file header may be split across any number of Feed
// calls. The network ingest path forwards whatever byte windows the
// client happened to POST, Reader whatever windows its io.Reader
// returns, and both decode the event sequence of the whole stream
// (FuzzStreamChunkFraming pins this equivalence).
//
// The steady-state Feed path allocates nothing: partial events wait in a
// fixed-size pending buffer (a complete event is at most maxEventBytes),
// decoded events accumulate in a decoder-owned batch that is flushed to
// the sink in place. Only header handling (the trace name) allocates,
// once per stream.
//
// Decoding errors are sticky: after the first malformed byte every
// subsequent Feed reports the same error. Bytes after the stream
// terminator are ignored.
type ChunkDecoder struct {
	phase    decodePhase
	err      error
	name     string
	headBuf  []byte // header accumulation; freed once the header parses
	headNeed int    // name bytes still missing (phaseName)

	lastPC   uint64
	lastAddr uint64

	pend  [maxEventBytes]byte
	npend int

	batch  [batchSize]Event
	nbatch int
}

// decodePhase tracks how far into the stream layout the decoder is.
type decodePhase uint8

const (
	phaseMagic  decodePhase = iota // magic + version + name-length varint
	phaseName                      // trace name bytes
	phaseEvents                    // event records
	phaseDone                      // terminator seen; trailing bytes ignored
)

// maxEventBytes bounds one encoded event: a kind byte plus at most two
// 64-bit varints (10 bytes each). If that many bytes cannot be decoded
// into a complete event, the stream is malformed, not merely short.
const maxEventBytes = 1 + 2*binary.MaxVarintLen64

// Name returns the trace name from the stream header and whether the
// header has been fully decoded yet.
func (d *ChunkDecoder) Name() (string, bool) {
	return d.name, d.phase >= phaseEvents
}

// Terminated reports whether the stream terminator byte has been seen:
// the trace is complete and any further bytes are ignored.
func (d *ChunkDecoder) Terminated() bool { return d.phase == phaseDone }

// Err returns the sticky decode error, nil while the stream is healthy.
func (d *ChunkDecoder) Err() error { return d.err }

// Feed decodes the next window of stream bytes, delivering complete
// events to sink in batches. It returns the first (sticky) decode error;
// events decoded before the error are still delivered. A sink stop
// request discards the rest of the window (and all future ones).
func (d *ChunkDecoder) Feed(data []byte, sink BatchSink) error {
	if d.err != nil {
		return d.err
	}
	if d.phase < phaseEvents {
		var err error
		data, err = d.feedHeader(data)
		if err != nil || d.phase < phaseEvents {
			return err
		}
	}
	for len(data) > 0 && d.phase == phaseEvents {
		// Whole events go to the kernel while it can take them; the
		// event it stops before takes the path below.
		if d.npend == 0 && len(data) >= maxEventBytes {
			if n := d.decodeRun(data); n > 0 {
				data = data[n:]
				if d.nbatch == batchSize && !d.flush(sink) {
					return nil
				}
				continue
			}
		}
		// Each event decodes straight into its batch slot; the slot
		// counts only once the event is complete.
		e := &d.batch[d.nbatch]
		var (
			n  int
			ok bool
		)
		if d.npend > 0 {
			// A previous window ended mid-event: extend the pending
			// buffer and retry. n counts bytes consumed from data.
			add := copy(d.pend[d.npend:], data)
			n, ok = d.decodeOne(d.pend[:d.npend+add], e)
			if !ok {
				if d.err != nil {
					break
				}
				if d.npend+add >= maxEventBytes {
					d.err = fmt.Errorf("%w: event exceeds %d bytes", ErrBadTrace, maxEventBytes)
					break
				}
				d.npend += add
				data = data[add:]
				continue
			}
			n -= d.npend
			d.npend = 0
		} else {
			n, ok = d.decodeOne(data, e)
			if !ok {
				if d.err != nil {
					break
				}
				d.npend = copy(d.pend[:], data)
				break
			}
		}
		data = data[n:]
		if d.phase == phaseDone {
			break
		}
		d.nbatch++
		if d.nbatch == batchSize && !d.flush(sink) {
			return nil
		}
	}
	if !d.flush(sink) {
		return nil
	}
	return d.err
}

// flush delivers the buffered batch; it reports false when the sink
// requested a stop, which is treated like a terminator (remaining input
// is discarded, not an error).
func (d *ChunkDecoder) flush(sink BatchSink) bool {
	if d.nbatch == 0 {
		return true
	}
	more := sink.ConsumeBatch(d.batch[:d.nbatch])
	d.nbatch = 0
	if !more {
		d.phase = phaseDone
		return false
	}
	return true
}

// feedHeader consumes header bytes (magic, version, name length, name)
// and returns the unconsumed remainder once the header is complete.
func (d *ChunkDecoder) feedHeader(data []byte) ([]byte, error) {
	d.headBuf = append(d.headBuf, data...)
	if d.phase == phaseMagic {
		// magic + version + a complete name-length varint.
		need := len(traceMagic) + 1
		if len(d.headBuf) < need {
			return nil, nil
		}
		if string(d.headBuf[:len(traceMagic)]) != traceMagic {
			d.err = fmt.Errorf("%w: bad magic %q", ErrBadTrace, d.headBuf[:len(traceMagic)])
			return nil, d.err
		}
		if v := d.headBuf[len(traceMagic)]; v != traceVersion {
			d.err = fmt.Errorf("%w: unsupported version %d", ErrBadTrace, v)
			return nil, d.err
		}
		nameLen, n := binary.Uvarint(d.headBuf[need:])
		if n == 0 {
			return nil, nil // varint still incomplete
		}
		if n < 0 || nameLen > MaxNameLen {
			d.err = fmt.Errorf("%w: name too long", ErrBadTrace)
			return nil, d.err
		}
		d.headBuf = d.headBuf[need+n:]
		d.headNeed = int(nameLen)
		d.phase = phaseName
	}
	if d.phase == phaseName {
		if len(d.headBuf) < d.headNeed {
			return nil, nil
		}
		d.name = string(d.headBuf[:d.headNeed])
		rest := d.headBuf[d.headNeed:]
		d.headBuf = nil
		d.phase = phaseEvents
		return rest, nil
	}
	return nil, nil
}

// decodeRun is Feed's kernel: it decodes events from the front of data
// into the batch by index, while the batch has room and at least
// maxEventBytes remain, so no event in the run can be cut short. The
// delta baselines stay in locals and are stored back once. It stops
// before any event it cannot take whole and valid (the terminator, an
// unknown kind, a field past its cap, a varint that overflows, or a
// branch outcome other than a single 0 or 1 byte) and returns the
// bytes it consumed; decodeOne then handles that event, so the errors
// are decodeOne's.
func (d *ChunkDecoder) decodeRun(data []byte) int {
	lastPC, lastAddr := d.lastPC, d.lastAddr
	i, p := d.nbatch, 0
run:
	for ; i < batchSize && len(data)-p >= maxEventBytes; i++ {
		b := data[p : p+maxEventBytes]
		e := &d.batch[i]
		// Each field's one-byte encoding, most of them, is decoded in
		// line; a longer one calls uvarint.
		v, un := uint64(b[1]), 1
		if v >= 0x80 {
			if v, un = uvarint(b[1:]); un <= 0 {
				break run
			}
		}
		switch k := Kind(b[0]); k {
		case Instr:
			if v > MaxInstrCount {
				break run
			}
			*e = Event{Kind: Instr, N: int(v)}
		case BlockBegin, BlockEnd:
			if v > MaxBlockID {
				break run
			}
			*e = Event{Kind: k, Block: int(v)}
		case Load, Store:
			a, an := uint64(b[1+un]), 1
			if a >= 0x80 {
				if a, an = uvarint(b[1+un:]); an <= 0 {
					break run
				}
			}
			lastPC += uint64(unzigzag(v))
			lastAddr += uint64(unzigzag(a))
			*e = Event{Kind: k, PC: lastPC, Addr: mem.Addr(lastAddr)}
			un += an
		case Branch:
			if t := b[1+un]; t <= 1 {
				lastPC += uint64(unzigzag(v))
				*e = Event{Kind: Branch, PC: lastPC, Taken: t != 0}
				un++
			} else {
				break run
			}
		default:
			break run
		}
		p += 1 + un
	}
	d.lastPC, d.lastAddr = lastPC, lastAddr
	d.nbatch = i
	return p
}

// decodeOne decodes a single event record from the front of b into e.
// It returns ok == false either because b is too short (retry with more
// bytes) or because the record is malformed (d.err is set); e and the
// delta baselines change only when an event decodes. The terminator
// flips the decoder to phaseDone and reports n == 1, leaving e
// untouched.
func (d *ChunkDecoder) decodeOne(b []byte, e *Event) (n int, ok bool) {
	kb := b[0]
	switch Kind(kb) {
	case Instr:
		v, un := uvarint(b[1:])
		if un == 0 {
			return 0, false
		}
		if un < 0 || v > MaxInstrCount {
			d.err = fmt.Errorf("%w: instr count %d exceeds %d", ErrBadTrace, v, uint64(MaxInstrCount))
			return 0, false
		}
		*e = Event{Kind: Instr, N: int(v)}
		return 1 + un, true
	case Load, Store:
		dpc, un := varint(b[1:])
		if un == 0 {
			return 0, false
		}
		if un < 0 {
			d.err = fmt.Errorf("%w: bad pc delta", ErrBadTrace)
			return 0, false
		}
		n = 1 + un
		daddr, un := varint(b[n:])
		if un == 0 {
			return 0, false
		}
		if un < 0 {
			d.err = fmt.Errorf("%w: bad addr delta", ErrBadTrace)
			return 0, false
		}
		d.lastPC += uint64(dpc)
		d.lastAddr += uint64(daddr)
		*e = Event{Kind: Kind(kb), PC: d.lastPC, Addr: mem.Addr(d.lastAddr)}
		return n + un, true
	case BlockBegin, BlockEnd:
		v, un := uvarint(b[1:])
		if un == 0 {
			return 0, false
		}
		if un < 0 || v > MaxBlockID {
			d.err = fmt.Errorf("%w: block ID %d exceeds %d", ErrBadTrace, v, uint64(MaxBlockID))
			return 0, false
		}
		*e = Event{Kind: Kind(kb), Block: int(v)}
		return 1 + un, true
	case Branch:
		dpc, un := varint(b[1:])
		if un == 0 {
			return 0, false
		}
		if un < 0 {
			d.err = fmt.Errorf("%w: bad pc delta", ErrBadTrace)
			return 0, false
		}
		n = 1 + un
		t, un := uvarint(b[n:])
		if un == 0 {
			return 0, false
		}
		if un < 0 || t > 1 {
			d.err = fmt.Errorf("%w: branch outcome %d is not 0 or 1", ErrBadTrace, t)
			return 0, false
		}
		d.lastPC += uint64(dpc)
		*e = Event{Kind: Branch, PC: d.lastPC, Taken: t != 0}
		return n + un, true
	case kindEOF:
		d.phase = phaseDone
		return 1, true
	}
	d.err = fmt.Errorf("%w: unknown kind %d", ErrBadTrace, kb)
	return 0, false
}

// uvarint decodes the uvarint at the front of b like binary.Uvarint,
// whose results it returns. Two fast paths cover nearly every field: a
// one-byte encoding (most deltas), and an encoding that ends within the
// next eight bytes, which is decoded from one 64-bit load without a
// per-byte branch. Longer, short or overflowing input takes
// binary.Uvarint itself.
func uvarint(b []byte) (uint64, int) {
	if len(b) > 0 && b[0] < 0x80 {
		return uint64(b[0]), 1
	}
	if len(b) >= 8 {
		x := binary.LittleEndian.Uint64(b)
		if stop := ^x & 0x8080808080808080; stop != 0 {
			// Byte n-1 is the first with its continuation bit clear;
			// drop the bytes after it and pack the 7-bit groups.
			n := bits.TrailingZeros64(stop)/8 + 1
			x &= 1<<(8*n) - 1
			x = x&0x7f | x>>1&(0x7f<<7) | x>>2&(0x7f<<14) | x>>3&(0x7f<<21) |
				x>>4&(0x7f<<28) | x>>5&(0x7f<<35) | x>>6&(0x7f<<42) | x>>7&(0x7f<<49)
			return x, n
		}
	}
	return binary.Uvarint(b)
}

// varint is uvarint for a zigzag varint, like binary.Varint.
func varint(b []byte) (int64, int) {
	u, n := uvarint(b)
	return unzigzag(u), n
}

// unzigzag inverts Zigzag.
func unzigzag(u uint64) int64 { return int64(u>>1) ^ -int64(u&1) }

// Finish declares the input complete and checks the stream ended
// cleanly: the header parsed, no partial event is pending, and the
// terminator byte was seen.
func (d *ChunkDecoder) Finish() error {
	if d.err != nil {
		return d.err
	}
	if d.phase != phaseDone {
		d.err = fmt.Errorf("%w: truncated stream (no terminator)", ErrBadTrace)
		return d.err
	}
	return nil
}

// AtEventBoundary reports whether the decoder sits exactly between
// events: the header is parsed and no partial record is buffered. A
// stream closed here is structurally clean even without a terminator —
// the service's finalize-or-cancel logic uses this to distinguish "the
// client stopped between events" from "the client stopped mid-record".
func (d *ChunkDecoder) AtEventBoundary() bool {
	return d.err == nil && (d.phase == phaseDone || (d.phase == phaseEvents && d.npend == 0))
}
