package corpus

import (
	"compress/flate"
	"crypto/sha256"
	"encoding/binary"
	"encoding/hex"
	"fmt"
	"io"
	"math/bits"
	"os"

	"cbws/internal/mem"
	"cbws/internal/trace"
)

// OpenOptions configures Open.
type OpenOptions struct {
	// DisableMmap forces the io.ReaderAt fallback path even on
	// platforms with mmap support. Replay output is identical either
	// way; the fallback copies each block through a reused buffer
	// instead of decoding straight out of the page cache.
	DisableMmap bool
}

// Corpus is an opened CBWC file. It is immutable and safe for
// concurrent use; per-goroutine decode state lives in Replayers.
type Corpus struct {
	name        string
	compressed  bool
	blockEvents int
	eventCount  uint64
	instrCount  uint64
	index       []blockEntry

	data    []byte       // whole-file view (mmap or caller-provided bytes)
	unmap   func() error // releases data when it is a mapping
	ra      io.ReaderAt  // fallback block source when data == nil
	f       *os.File     // owned handle backing ra (closed by Close)
	size    int64
	mmapped bool

	maxStored uint32 // scratch sizing for fallback/compressed reads
	maxRaw    uint32
}

// Open opens a corpus file, mapping it into memory where the platform
// supports it and falling back to positioned reads otherwise.
func Open(path string, opts OpenOptions) (*Corpus, error) {
	f, err := os.Open(path)
	if err != nil {
		return nil, fmt.Errorf("corpus: %w", err)
	}
	st, err := f.Stat()
	if err != nil {
		f.Close()
		return nil, fmt.Errorf("corpus: %w", err)
	}
	if !opts.DisableMmap {
		if data, unmap, err := mmapFile(f, st.Size()); err == nil {
			c, cerr := OpenBytes(data)
			if cerr != nil {
				unmap()
				f.Close()
				return nil, cerr
			}
			c.unmap = unmap
			c.f = f
			c.mmapped = true
			return c, nil
		}
	}
	c, err := openReaderAt(f, st.Size())
	if err != nil {
		f.Close()
		return nil, err
	}
	c.f = f
	return c, nil
}

// OpenBytes parses a corpus already resident in memory. The Corpus
// aliases data; the caller must keep it valid until Close.
func OpenBytes(data []byte) (*Corpus, error) {
	c := &Corpus{data: data, size: int64(len(data))}
	if err := c.parse(func(buf []byte, off int64) error {
		if off < 0 || off+int64(len(buf)) > int64(len(data)) {
			return fmt.Errorf("%w: truncated", ErrBadCorpus)
		}
		copy(buf, data[off:])
		return nil
	}); err != nil {
		return nil, err
	}
	return c, nil
}

// OpenReaderAt parses a corpus served by positioned reads (the
// explicit fallback constructor; Open uses it when mmap is unavailable
// or disabled).
func OpenReaderAt(ra io.ReaderAt, size int64) (*Corpus, error) {
	return openReaderAt(ra, size)
}

func openReaderAt(ra io.ReaderAt, size int64) (*Corpus, error) {
	c := &Corpus{ra: ra, size: size}
	if err := c.parse(func(buf []byte, off int64) error {
		if _, err := ra.ReadAt(buf, off); err != nil {
			return fmt.Errorf("%w: %v", ErrBadCorpus, err)
		}
		return nil
	}); err != nil {
		return nil, err
	}
	return c, nil
}

// parse validates the header, trailer, and block index via the given
// positioned-read function.
func (c *Corpus) parse(readAt func(buf []byte, off int64) error) error {
	bad := func(format string, args ...any) error {
		return fmt.Errorf("%w: %s", ErrBadCorpus, fmt.Sprintf(format, args...))
	}
	// Fixed header prefix: magic(4) + version(1) + flags(1) +
	// reserved(2) + blockEvents(4) = 12 bytes, then at least one
	// nameLen byte.
	const headerMin = 12 + 1
	if c.size < int64(headerMin+trailerLen) {
		return bad("file too small (%d bytes)", c.size)
	}

	// Header: magic, version, flags, block granule, name.
	hdr := make([]byte, headerMin)
	if err := readAt(hdr, 0); err != nil {
		return err
	}
	if string(hdr[:4]) != magic {
		return bad("bad magic %q", hdr[:4])
	}
	if hdr[4] != version {
		return bad("unsupported version %d", hdr[4])
	}
	flags := hdr[5]
	if flags&^byte(flagCompressed) != 0 {
		return bad("unknown flags %#x", flags)
	}
	c.compressed = flags&flagCompressed != 0
	if hdr[6] != 0 || hdr[7] != 0 {
		return bad("nonzero reserved bytes")
	}
	be := binary.LittleEndian.Uint32(hdr[8:])
	if be < 1 || be > MaxBlockEvents {
		return bad("block events %d out of range [1, %d]", be, MaxBlockEvents)
	}
	c.blockEvents = int(be)
	// The name length is a uvarint; read enough bytes for the worst
	// case, bounded by the file size.
	nameArea := make([]byte, min64(int64(binary.MaxVarintLen64+maxNameLen), c.size-12))
	if err := readAt(nameArea, 12); err != nil {
		return err
	}
	nameLen, n := binary.Uvarint(nameArea)
	if n <= 0 || nameLen > maxNameLen || int64(n)+int64(nameLen) > int64(len(nameArea)) {
		return bad("bad name length")
	}
	c.name = string(nameArea[n : n+int(nameLen)])
	headerEnd := int64(12 + n + int(nameLen))

	// Trailer.
	tr := make([]byte, trailerLen)
	if err := readAt(tr, c.size-int64(trailerLen)); err != nil {
		return err
	}
	if string(tr[40:]) != magicEnd {
		return bad("bad end magic %q", tr[40:])
	}
	indexOff := binary.LittleEndian.Uint64(tr[0:])
	indexLen := binary.LittleEndian.Uint64(tr[8:])
	blockCount := binary.LittleEndian.Uint64(tr[16:])
	c.eventCount = binary.LittleEndian.Uint64(tr[24:])
	c.instrCount = binary.LittleEndian.Uint64(tr[32:])
	if indexLen != blockCount*indexEntry {
		return bad("index length %d does not cover %d blocks", indexLen, blockCount)
	}
	if int64(indexOff) < headerEnd || indexOff+indexLen != uint64(c.size-int64(trailerLen)) {
		return bad("index does not abut the trailer")
	}

	// Index: contiguous, in-order blocks exactly filling
	// [headerEnd, indexOff).
	idx := make([]byte, indexLen)
	if err := readAt(idx, int64(indexOff)); err != nil {
		return err
	}
	c.index = make([]blockEntry, blockCount)
	next := uint64(headerEnd)
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
		// taken bit): bounds the decode scratch a hostile index can
		// demand.
		if uint64(e.rawLen) > uint64(e.events)*48 {
			return bad("block %d raw length %d implausible for %d events", i, e.rawLen, e.events)
		}
		if c.compressed {
			if e.storedLen == 0 {
				return bad("block %d empty", i)
			}
		} else if e.storedLen != e.rawLen {
			return bad("block %d stored length %d != raw length %d in an uncompressed corpus", i, e.storedLen, e.rawLen)
		}
		next += uint64(e.storedLen)
		events += uint64(e.events)
		if e.storedLen > c.maxStored {
			c.maxStored = e.storedLen
		}
		if e.rawLen > c.maxRaw {
			c.maxRaw = e.rawLen
		}
	}
	if next != indexOff {
		return bad("blocks end at %d, index starts at %d", next, indexOff)
	}
	if events != c.eventCount {
		return bad("index holds %d events, trailer claims %d", events, c.eventCount)
	}
	return nil
}

func min64(a, b int64) int64 {
	if a < b {
		return a
	}
	return b
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

// Compressed reports whether block payloads are DEFLATE-compressed.
func (c *Corpus) Compressed() bool { return c.compressed }

// Size returns the file size in bytes.
func (c *Corpus) Size() int64 { return c.size }

// Mmapped reports whether the corpus is served from a memory mapping
// (false on the io.ReaderAt fallback path).
func (c *Corpus) Mmapped() bool { return c.mmapped }

// ColumnBytes returns the total on-disk (uncompressed) bytes of each
// column, in format order: kinds, pc, addr, n, block, taken.
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
func (c *Corpus) Hash() (string, error) {
	h := sha256.New()
	if c.data != nil {
		h.Write(c.data)
	} else {
		if _, err := io.Copy(h, io.NewSectionReader(c.ra, 0, c.size)); err != nil {
			return "", fmt.Errorf("corpus: hashing: %w", err)
		}
	}
	return hex.EncodeToString(h.Sum(nil)), nil
}

// Close releases the mapping and the underlying file.
func (c *Corpus) Close() error {
	var err error
	if c.unmap != nil {
		err = c.unmap()
		c.unmap = nil
		c.data = nil
	}
	if c.f != nil {
		if cerr := c.f.Close(); err == nil {
			err = cerr
		}
		c.f = nil
	}
	return err
}

// Replayer replays a corpus as a trace.Generator. Each Replayer owns
// its decode buffers, so independent simulations can replay one shared
// Corpus concurrently; a single Replayer is not safe for concurrent use
// but is reusable — every GenerateBatches/Replay call starts from the
// first event.
type Replayer struct {
	c       *Corpus
	buf     []trace.Event
	scratch []byte        // decompressed/read block payload when needed
	stored  []byte        // compressed payload staging for the fallback path
	fr      io.ReadCloser // flate reader, Reset-reused across blocks
}

// NewReplayer returns a replayer with freshly allocated decode buffers.
// All buffers are sized up front from the index, so replay itself
// allocates nothing.
func (c *Corpus) NewReplayer() *Replayer {
	r := &Replayer{c: c, buf: make([]trace.Event, c.blockEvents)}
	if c.data == nil || c.compressed {
		r.scratch = make([]byte, c.maxRaw)
	}
	if c.compressed && c.data == nil {
		r.stored = make([]byte, c.maxStored)
	}
	return r
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
		data, err := r.blockPayload(e)
		if err != nil {
			return fmt.Errorf("%w: block %d: %v", ErrBadCorpus, i, err)
		}
		if !r.decodeBlock(e, data) {
			return fmt.Errorf("%w: block %d: corrupt columns", ErrBadCorpus, i)
		}
		if !sink.ConsumeBatch(r.buf[:e.events]) {
			return nil
		}
	}
	return nil
}

// blockPayload returns the raw (decompressed) payload bytes of one
// block: a zero-copy subslice of the mapping when possible, the reused
// scratch buffer otherwise.
func (r *Replayer) blockPayload(e *blockEntry) ([]byte, error) {
	c := r.c
	if c.data != nil && !c.compressed {
		return c.data[e.offset : e.offset+uint64(e.storedLen)], nil
	}
	if c.data != nil { // mmapped but compressed
		return r.inflate(c.data[e.offset:e.offset+uint64(e.storedLen)], e.rawLen)
	}
	if !c.compressed { // fallback reads, plain payload
		out := r.scratch[:e.storedLen]
		if _, err := c.ra.ReadAt(out, int64(e.offset)); err != nil {
			return nil, err
		}
		return out, nil
	}
	stored := r.stored[:e.storedLen]
	if _, err := c.ra.ReadAt(stored, int64(e.offset)); err != nil {
		return nil, err
	}
	return r.inflate(stored, e.rawLen)
}

// inflate decompresses one block payload into the reused scratch
// buffer.
func (r *Replayer) inflate(stored []byte, rawLen uint32) ([]byte, error) {
	br := byteReaderAt{data: stored}
	if r.fr == nil {
		r.fr = flate.NewReader(&br)
	} else if err := r.fr.(flate.Resetter).Reset(&br, nil); err != nil {
		return nil, err
	}
	out := r.scratch[:rawLen]
	if _, err := io.ReadFull(r.fr, out); err != nil {
		return nil, err
	}
	// The payload must end exactly at rawLen.
	var one [1]byte
	if n, err := r.fr.Read(one[:]); n != 0 || err != io.EOF {
		return nil, fmt.Errorf("block longer than its raw length")
	}
	return out, nil
}

// byteReaderAt is a minimal io.Reader over a byte slice, avoiding a
// bytes.Reader allocation per block.
type byteReaderAt struct {
	data []byte
	pos  int
}

func (b *byteReaderAt) Read(p []byte) (int, error) {
	if b.pos >= len(b.data) {
		return 0, io.EOF
	}
	n := copy(p, b.data[b.pos:])
	b.pos += n
	return n, nil
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
