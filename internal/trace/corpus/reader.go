package corpus

import (
	"crypto/sha256"
	"encoding/binary"
	"encoding/hex"
	"errors"
	"fmt"
	"math/bits"
	"os"

	"cbws/internal/mem"
	"cbws/internal/trace"
)

// OpenOptions configures Open. It has no fields: the platform, not the
// caller, decides how the file's bytes are obtained, and replay is the
// same either way.
type OpenOptions struct{}

// Corpus is an opened CBWC file. It is immutable and safe for
// concurrent use; per-goroutine decode state lives in Replayers.
type Corpus struct {
	name        string
	blockEvents int
	eventCount  uint64
	instrCount  uint64
	index       []blockEntry

	data  []byte       // the whole file: mapped, read in, or caller-provided
	unmap func() error // releases data (nil for OpenBytes corpora)
}

// Open opens a corpus file. Where the platform supports it the file is
// mapped read-only; elsewhere, or when the mapping fails, it is read
// into memory. Either way the bytes go through OpenBytes.
func Open(path string, _ OpenOptions) (*Corpus, error) {
	data, unmap, err := mmapFile(path)
	if err != nil {
		data, unmap, err = readFile(path)
	}
	if err != nil {
		return nil, fmt.Errorf("corpus: %w", err)
	}
	c, err := OpenBytes(data)
	if err != nil {
		unmap()
		return nil, err
	}
	c.unmap = unmap
	return c, nil
}

// errMmapUnavailable reports a file mmapFile cannot map (empty, too
// large for the address space, or no mapping on this platform).
var errMmapUnavailable = errors.New("corpus: mmap unavailable")

// readFile is the byte source where mapping is unavailable: the whole
// file read into memory, with nothing to release.
func readFile(path string) ([]byte, func() error, error) {
	data, err := os.ReadFile(path)
	return data, func() error { return nil }, err
}

// OpenBytes parses a corpus already resident in memory. The Corpus
// aliases data; the caller must keep it valid until Close.
func OpenBytes(data []byte) (*Corpus, error) {
	c := &Corpus{data: data}
	if err := c.parse(); err != nil {
		return nil, err
	}
	return c, nil
}

// parse validates the header, trailer, and block index of c.data.
func (c *Corpus) parse() error {
	bad := func(format string, args ...any) error {
		return fmt.Errorf("%w: %s", ErrBadCorpus, fmt.Sprintf(format, args...))
	}
	data := c.data
	// Fixed header prefix: magic(4) + version(1) + flags(1) +
	// reserved(2) + blockEvents(4) = 12 bytes, then at least one
	// nameLen byte.
	const headerMin = 12 + 1
	if len(data) < headerMin+trailerLen {
		return bad("file too small (%d bytes)", len(data))
	}

	// Header: magic, version, flags, block granule, name.
	if string(data[:4]) != magic {
		return bad("bad magic %q", data[:4])
	}
	if data[4] != version {
		return bad("unsupported version %d", data[4])
	}
	if data[5] != 0 {
		return bad("flags %#x set in the reserved flags byte (DEFLATE-compressed corpora are no longer read; repack them)", data[5])
	}
	if data[6] != 0 || data[7] != 0 {
		return bad("nonzero reserved bytes")
	}
	be := binary.LittleEndian.Uint32(data[8:])
	if be < 1 || be > MaxBlockEvents {
		return bad("block events %d out of range [1, %d]", be, MaxBlockEvents)
	}
	c.blockEvents = int(be)
	nameLen, n := binary.Uvarint(data[12:])
	if n <= 0 || nameLen > trace.MaxNameLen || uint64(n)+nameLen > uint64(len(data)-12) {
		return bad("bad name length")
	}
	c.name = string(data[12+n : 12+n+int(nameLen)])
	headerEnd := uint64(12 + n + int(nameLen))

	// Trailer.
	end := uint64(len(data) - trailerLen) // where the index must stop
	tr := data[end:]
	if string(tr[40:]) != magicEnd {
		return bad("bad end magic %q", tr[40:])
	}
	indexOff := binary.LittleEndian.Uint64(tr[0:])
	indexLen := binary.LittleEndian.Uint64(tr[8:])
	blockCount := binary.LittleEndian.Uint64(tr[16:])
	c.eventCount = binary.LittleEndian.Uint64(tr[24:])
	c.instrCount = binary.LittleEndian.Uint64(tr[32:])
	if indexLen%indexEntry != 0 || indexLen/indexEntry != blockCount {
		return bad("index length %d does not cover %d blocks", indexLen, blockCount)
	}
	if indexOff < headerEnd || indexOff > end || indexLen != end-indexOff {
		return bad("index does not abut the trailer")
	}

	// Index: contiguous, in-order blocks exactly filling
	// [headerEnd, indexOff).
	idx := data[indexOff:end]
	c.index = make([]blockEntry, blockCount)
	next := headerEnd
	var events uint64
	for i := range c.index {
		e := &c.index[i]
		e.unmarshal(idx[i*indexEntry:])
		if e.offset != next {
			return bad("block %d at offset %d, want %d (blocks must be contiguous)", i, e.offset, next)
		}
		if e.events < 1 || int(e.events) > c.blockEvents {
			return bad("block %d has %d events, granule is %d", i, e.events, c.blockEvents)
		}
		if i < len(c.index)-1 && int(e.events) != c.blockEvents {
			return bad("block %d is short (%d events) but not last", i, e.events)
		}
		var colSum uint64
		for _, l := range e.colLen {
			colSum += uint64(l)
		}
		if colSum != uint64(e.rawLen) {
			return bad("block %d column lengths sum to %d, raw length is %d", i, colSum, e.rawLen)
		}
		if e.colLen[colKinds] != e.events {
			return bad("block %d kind column has %d bytes for %d events", i, e.colLen[colKinds], e.events)
		}
		// Generous per-event ceiling (kind + four 10-byte varints +
		// taken bit): no event mix fills a longer block, so reject it
		// here rather than at replay.
		if uint64(e.rawLen) > uint64(e.events)*48 {
			return bad("block %d raw length %d implausible for %d events", i, e.rawLen, e.events)
		}
		if e.storedLen != e.rawLen {
			return bad("block %d stored length %d != raw length %d", i, e.storedLen, e.rawLen)
		}
		next += uint64(e.storedLen)
		events += uint64(e.events)
	}
	if next != indexOff {
		return bad("blocks end at %d, index starts at %d", next, indexOff)
	}
	if events != c.eventCount {
		return bad("index holds %d events, trailer claims %d", events, c.eventCount)
	}
	return nil
}

// Name returns the trace name recorded in the corpus header.
func (c *Corpus) Name() string { return c.name }

// Events returns the total event count.
func (c *Corpus) Events() uint64 { return c.eventCount }

// Instructions returns the total dynamic instruction count.
func (c *Corpus) Instructions() uint64 { return c.instrCount }

// Blocks returns the number of blocks.
func (c *Corpus) Blocks() int { return len(c.index) }

// BlockEvents returns the events-per-block granule.
func (c *Corpus) BlockEvents() int { return c.blockEvents }

// Size returns the file size in bytes.
func (c *Corpus) Size() int64 { return int64(len(c.data)) }

// ColumnBytes returns the total on-disk bytes of each column, in
// format order: kinds, pc, addr, n, block, taken.
func (c *Corpus) ColumnBytes() [6]uint64 {
	var out [6]uint64
	for i := range c.index {
		for j, l := range c.index[i].colLen {
			out[j] += uint64(l)
		}
	}
	return out
}

// Hash computes the content address: the hex SHA-256 over the exact
// file bytes.
func (c *Corpus) Hash() string {
	sum := sha256.Sum256(c.data)
	return hex.EncodeToString(sum[:])
}

// Close releases the file's bytes. A Corpus from OpenBytes has nothing
// to release.
func (c *Corpus) Close() error {
	if c.unmap == nil {
		return nil
	}
	err := c.unmap()
	c.unmap, c.data = nil, nil
	return err
}

// Replayer replays a corpus as a trace.Generator. Each Replayer owns
// its decode buffer, so independent simulations can replay one shared
// Corpus concurrently; a single Replayer is not safe for concurrent use
// but is reusable — every GenerateBatches/Replay call starts from the
// first event.
type Replayer struct {
	c   *Corpus
	buf []trace.Event
}

// NewReplayer returns a replayer with a freshly allocated decode
// buffer, sized to the block granule, so replay itself allocates
// nothing.
func (c *Corpus) NewReplayer() *Replayer {
	return &Replayer{c: c, buf: make([]trace.Event, c.blockEvents)}
}

// Name implements trace.Generator.
func (r *Replayer) Name() string { return r.c.name }

// GenerateBatches implements trace.Generator. Decode errors on a
// corrupt file stop the stream early; use Replay for explicit errors.
func (r *Replayer) GenerateBatches(sink trace.BatchSink) {
	_ = r.Replay(sink)
}

// Replay decodes every block into the reused event buffer and hands
// each to sink, stopping early (without error) once the sink returns
// false. The delivered batch is only valid during the ConsumeBatch
// call, per the trace.BatchSink contract.
func (r *Replayer) Replay(sink trace.BatchSink) error {
	c := r.c
	for i := range c.index {
		e := &c.index[i]
		if !r.decodeBlock(e, c.data[e.offset:e.offset+uint64(e.rawLen)]) {
			return fmt.Errorf("%w: block %d: corrupt columns", ErrBadCorpus, i)
		}
		if !sink.ConsumeBatch(r.buf[:e.events]) {
			return nil
		}
	}
	return nil
}

// decodeBlock decodes one block payload into r.buf, returning false on
// any structural corruption. This is the replay hot path: a single walk
// over the kind bytes with per-column cursors and plain stores into the
// reused buffer — no allocation, no error wrapping, and no per-event
// calls on the common paths (the varint fast paths are hand-inlined;
// only 9/10-byte varints and column tails take the out-of-line decoder).
//
//cbws:hotpath
func (r *Replayer) decodeBlock(e *blockEntry, data []byte) bool {
	if uint64(len(data)) != uint64(e.rawLen) {
		return false
	}
	// Column boundaries as absolute offsets into the single payload
	// slice. Six sub-slices would carry six live (ptr, len) pairs through
	// the loop and spill; integer ends against one base pointer roughly
	// halve the live state.
	kEnd := int(e.colLen[colKinds])
	pEnd := kEnd + int(e.colLen[colPC])
	aEnd := pEnd + int(e.colLen[colAddr])
	nEnd := aEnd + int(e.colLen[colN])
	bEnd := nEnd + int(e.colLen[colBlock])
	if bEnd > len(data) {
		return false
	}

	kinds := data[:kEnd]
	out := r.buf[:kEnd]
	pp, ap, np, bp := kEnd, pEnd, aEnd, nEnd // column cursors
	var tb uint                              // taken bit cursor
	lastPC := e.basePC
	lastAddr := e.baseAddr
	for i := range kinds {
		// Each arm overwrites out[i] with a full composite literal —
		// one run of plain stores that both sets the decoded fields and
		// clears the stale ones, cheaper than a separate memclr pass
		// over the reused batch. Dispatch is an if/else chain in
		// event-frequency order (memory ops, instr runs, block marks,
		// branches): a 6-way switch compiles to a balanced compare tree
		// that mispredicts more on the skewed kind mix of real traces.
		k := trace.Kind(kinds[i])
		if k == trace.Load || k == trace.Store {
			// PC delta: a one-byte fast path (consecutive memory ops sit
			// close together), then a branchless multi-byte decode — one
			// 8-byte load, the continuation-bit mask m gives both the
			// length and (as m^(m-1)) the payload mask, and three
			// shift-mask steps compact the 7-bit groups. Varints past 8
			// bytes and the column tail fall back to the generic decoder.
			if pp < pEnd && data[pp] < 0x80 {
				lastPC = uint64(int64(lastPC) + unzigzag(uint64(data[pp])))
				pp++
			} else if pp+8 <= pEnd {
				x := binary.LittleEndian.Uint64(data[pp:])
				m := ^x & 0x8080808080808080
				if m == 0 {
					v, n := uvarintSlowAt(data[:pEnd], pp)
					if n <= 0 {
						return false
					}
					pp += n
					lastPC = uint64(int64(lastPC) + unzigzag(v))
				} else {
					x &= m ^ (m - 1)
					x = (x&0x7f007f007f007f00)>>1 | x&0x007f007f007f007f
					x = (x&0x3fff00003fff0000)>>2 | x&0x00003fff00003fff
					x = (x&0x0fffffff00000000)>>4 | x&0x000000000fffffff
					pp += bits.TrailingZeros64(m)>>3 + 1
					lastPC = uint64(int64(lastPC) + unzigzag(x))
				}
			} else {
				v, n := uvarintSlowAt(data[:pEnd], pp)
				if n <= 0 {
					return false
				}
				pp += n
				lastPC = uint64(int64(lastPC) + unzigzag(v))
			}
			// Addr deltas commonly span several bytes (cache-line and
			// array-switch strides zigzag past one byte), so skip the
			// one-byte fast path and decode branchlessly straight away.
			if ap+8 <= aEnd {
				x := binary.LittleEndian.Uint64(data[ap:])
				m := ^x & 0x8080808080808080
				if m == 0 {
					v, n := uvarintSlowAt(data[:aEnd], ap)
					if n <= 0 {
						return false
					}
					ap += n
					lastAddr = uint64(int64(lastAddr) + unzigzag(v))
				} else {
					x &= m ^ (m - 1)
					x = (x&0x7f007f007f007f00)>>1 | x&0x007f007f007f007f
					x = (x&0x3fff00003fff0000)>>2 | x&0x00003fff00003fff
					x = (x&0x0fffffff00000000)>>4 | x&0x000000000fffffff
					ap += bits.TrailingZeros64(m)>>3 + 1
					lastAddr = uint64(int64(lastAddr) + unzigzag(x))
				}
			} else {
				v, n := uvarintSlowAt(data[:aEnd], ap)
				if n <= 0 {
					return false
				}
				ap += n
				lastAddr = uint64(int64(lastAddr) + unzigzag(v))
			}
			out[i] = trace.Event{Kind: k, PC: lastPC, Addr: mem.Addr(lastAddr)}
		} else if k == trace.Instr {
			var v uint64
			if np < nEnd && data[np] < 0x80 {
				v = uint64(data[np])
				np++
			} else {
				var n int
				if v, n = uvarintSlowAt(data[:nEnd], np); n <= 0 || v > trace.MaxInstrCount {
					return false
				}
				np += n
			}
			out[i] = trace.Event{Kind: trace.Instr, N: int(v)}
		} else if k == trace.BlockBegin || k == trace.BlockEnd {
			var v uint64
			if bp < bEnd && data[bp] < 0x80 {
				v = uint64(data[bp])
				bp++
			} else {
				var n int
				if v, n = uvarintSlowAt(data[:bEnd], bp); n <= 0 || v > trace.MaxBlockID {
					return false
				}
				bp += n
			}
			out[i] = trace.Event{Kind: k, Block: int(v)}
		} else if k == trace.Branch {
			// Branch PC deltas: same fast path + branchless decode as
			// Load/Store, in its own arm so the memory-op path stays
			// free of the per-branch taken-bit work.
			if pp < pEnd && data[pp] < 0x80 {
				lastPC = uint64(int64(lastPC) + unzigzag(uint64(data[pp])))
				pp++
			} else if pp+8 <= pEnd {
				x := binary.LittleEndian.Uint64(data[pp:])
				m := ^x & 0x8080808080808080
				if m == 0 {
					v, n := uvarintSlowAt(data[:pEnd], pp)
					if n <= 0 {
						return false
					}
					pp += n
					lastPC = uint64(int64(lastPC) + unzigzag(v))
				} else {
					x &= m ^ (m - 1)
					x = (x&0x7f007f007f007f00)>>1 | x&0x007f007f007f007f
					x = (x&0x3fff00003fff0000)>>2 | x&0x00003fff00003fff
					x = (x&0x0fffffff00000000)>>4 | x&0x000000000fffffff
					pp += bits.TrailingZeros64(m)>>3 + 1
					lastPC = uint64(int64(lastPC) + unzigzag(x))
				}
			} else {
				v, n := uvarintSlowAt(data[:pEnd], pp)
				if n <= 0 {
					return false
				}
				pp += n
				lastPC = uint64(int64(lastPC) + unzigzag(v))
			}
			ti := bEnd + int(tb>>3)
			if ti >= len(data) {
				return false
			}
			out[i] = trace.Event{Kind: trace.Branch, PC: lastPC, Taken: data[ti]>>(tb&7)&1 != 0}
			tb++
		} else {
			return false
		}
	}
	// Every column must be fully consumed: trailing bytes would mean
	// the index lied about the column lengths.
	if pp != pEnd || ap != aEnd || np != nEnd || bp != bEnd {
		return false
	}
	return bEnd+(int(tb)+7)/8 == len(data)
}

// uvarintSlowAt is the multi-byte (and end-of-column) varint tail of
// the hand-inlined fast paths in decodeBlock. It returns the value and
// the number of bytes consumed (0 at the end of the column, negative
// on overflow), mirroring binary.Uvarint.
//
//cbws:hotpath
func uvarintSlowAt(col []byte, p int) (uint64, int) {
	if p >= len(col) {
		return 0, 0
	}
	return binary.Uvarint(col[p:])
}
