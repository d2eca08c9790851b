// Package corpus implements CBWC, the columnar on-disk trace corpus
// format: a container for captured event streams that replays at memory
// bandwidth with zero per-event allocations and is shareable between
// cbwsd workers by content address instead of by re-sending bytes.
//
// Where the CBWT stream (internal/trace) interleaves every field of
// every event, CBWC stores a trace as fixed-size blocks of per-field
// columnar arrays. Every corpus replays from one byte slice: Open maps
// the file where the platform allows it and reads it into memory
// otherwise, and each block decodes straight out of that slice into a
// reusable []trace.Event batch, so the steady state is a pointer walk
// over page-cache memory — no bufio, no per-event reads, no allocation.
//
// # On-disk layout (CBWC version 1)
//
// All fixed-width integers are little-endian. "uvarint" and "varint"
// are the encoding/binary variable-length encodings.
//
//	header:
//	  magic       [4]byte  "CBWC"
//	  version     u8       1
//	  flags       u8       reserved, zero (any set bit is rejected)
//	  reserved    [2]byte  zero
//	  blockEvents u32      events per full block (last block may be short)
//	  nameLen     uvarint  + name bytes (the trace/workload name)
//
//	blocks: each block's payload is the concatenation of six columns,
//	  in this order:
//	    kinds: 1 byte per event (trace.Kind)
//	    pc:    zigzag-varint PC delta per Load/Store/Branch event,
//	           against the previous such event (block-local, seeded
//	           from the index entry's basePC)
//	    addr:  zigzag-varint Addr delta per Load/Store event, seeded
//	           from the index entry's baseAddr
//	    n:     uvarint dynamic instruction count per Instr event
//	           (the stream codec's normalization applies: N=0 encodes
//	           as 1)
//	    block: uvarint static block ID per BlockBegin/BlockEnd event
//	    taken: branch outcomes bit-packed LSB-first, one bit per
//	           Branch event
//
//	index: one fixed-width 60-byte entry per block:
//	  offset    u64      file offset of the block payload
//	  storedLen u32      payload bytes on disk; equals rawLen
//	  rawLen    u32      payload bytes; the column lengths sum to it
//	  events    u32      events in the block
//	  colLen    [6]u32   per-column byte lengths; they sum to rawLen
//	  basePC    u64      PC delta baseline entering the block
//	  baseAddr  u64      Addr delta baseline entering the block
//
//	trailer (fixed 48 bytes, at EOF):
//	  indexOff   u64
//	  indexLen   u64
//	  blockCount u64
//	  eventCount u64
//	  instrCount u64     total dynamic instructions in the corpus
//	  magicEnd   [8]byte "CBWCEND\x01"
//
// Because blocks carry their own delta baselines they decode
// independently: a reader can seek to any block, and corrupt bytes are
// contained to the block they occupy.
//
// # Content address
//
// The content address of a corpus is the SHA-256 over its exact file
// bytes. The writer is strictly serial and allocates no iteration-order
// freedom (no maps, no wall-clock values, no padding), so packing the
// same event stream with the same options produces byte-identical files
// — and therefore the same address — on every platform and at every
// harness parallelism level. The address is how corpus blobs slot into
// the cbwsd result-cache keying: a job over a corpus-backed workload
// hashes the corpus address into its job key, so two daemons pointed at
// byte-identical corpora share cached results and two different corpora
// can never alias.
package corpus

import (
	"encoding/binary"
	"errors"
)

const (
	magic      = "CBWC"
	magicEnd   = "CBWCEND\x01"
	version    = 1
	trailerLen = 5*8 + len(magicEnd)
	indexEntry = 8 + 4 + 4 + 4 + 6*4 + 8 + 8 // 60 bytes

	// DefaultBlockEvents is the default events-per-block. 4096 events
	// keep the decode batch (~192KB of trace.Event) streaming through
	// L2 while amortizing the per-block index and virtual-call overhead
	// to noise; it is also the random-access granule.
	DefaultBlockEvents = 4096

	// MaxBlockEvents bounds the per-block event count a reader will
	// accept, capping the decode-buffer allocation a hostile header can
	// demand.
	MaxBlockEvents = 1 << 20
)

// ErrBadCorpus reports a structurally invalid corpus file.
var ErrBadCorpus = errors.New("corpus: malformed corpus file")

// column indices into blockEntry.colLen.
const (
	colKinds = iota
	colPC
	colAddr
	colN
	colBlock
	colTaken
	numCols
)

// blockEntry is one decoded index entry.
type blockEntry struct {
	offset    uint64
	storedLen uint32
	rawLen    uint32
	events    uint32
	colLen    [numCols]uint32
	basePC    uint64
	baseAddr  uint64
}

// marshal appends the fixed-width wire form of e to dst.
func (e *blockEntry) marshal(dst []byte) []byte {
	dst = binary.LittleEndian.AppendUint64(dst, e.offset)
	dst = binary.LittleEndian.AppendUint32(dst, e.storedLen)
	dst = binary.LittleEndian.AppendUint32(dst, e.rawLen)
	dst = binary.LittleEndian.AppendUint32(dst, e.events)
	for _, l := range e.colLen {
		dst = binary.LittleEndian.AppendUint32(dst, l)
	}
	dst = binary.LittleEndian.AppendUint64(dst, e.basePC)
	dst = binary.LittleEndian.AppendUint64(dst, e.baseAddr)
	return dst
}

// unmarshal decodes one fixed-width index entry.
func (e *blockEntry) unmarshal(src []byte) {
	e.offset = binary.LittleEndian.Uint64(src[0:])
	e.storedLen = binary.LittleEndian.Uint32(src[8:])
	e.rawLen = binary.LittleEndian.Uint32(src[12:])
	e.events = binary.LittleEndian.Uint32(src[16:])
	for i := range e.colLen {
		e.colLen[i] = binary.LittleEndian.Uint32(src[20+4*i:])
	}
	e.basePC = binary.LittleEndian.Uint64(src[44:])
	e.baseAddr = binary.LittleEndian.Uint64(src[52:])
}

// zigzag encodes a signed delta into the unsigned space varints like.
func zigzag(v int64) uint64 { return uint64(v<<1) ^ uint64(v>>63) }

// unzigzag inverts zigzag.
//
//cbws:hotpath
func unzigzag(u uint64) int64 { return int64(u>>1) ^ -int64(u&1) }
