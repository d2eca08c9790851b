package corpus

import (
	"crypto/sha256"
	"encoding/binary"
	"encoding/hex"
	"fmt"
	"hash"
	"io"
	"os"
	"path/filepath"
	"slices"

	"cbws/internal/trace"
)

// Options configures a corpus writer.
type Options struct {
	// BlockEvents is the events-per-block granule (0: DefaultBlockEvents).
	BlockEvents int
}

// withDefaults fills the zero fields and validates the rest.
func (o Options) withDefaults() (Options, error) {
	if o.BlockEvents == 0 {
		o.BlockEvents = DefaultBlockEvents
	}
	if o.BlockEvents < 1 || o.BlockEvents > MaxBlockEvents {
		return o, fmt.Errorf("corpus: block events %d out of range [1, %d]", o.BlockEvents, MaxBlockEvents)
	}
	return o, nil
}

// Writer encodes an event stream into the CBWC columnar format. It
// implements trace.BatchSink, so any generator can be packed with
// trace.DriveBatches. Encoding errors are sticky and
// reported by Close.
type Writer struct {
	w    io.Writer
	sum  hash.Hash // sha256 over every byte written
	opts Options
	name string

	// Current block state.
	events   int // events in the current block
	basePC   uint64
	baseAddr uint64
	lastPC   uint64
	lastAddr uint64
	cols     [numCols][]byte
	takenBit uint   // bit cursor into the taken column
	blk      []byte // the finished block's payload, reused across blocks

	// File state.
	off        uint64
	index      []blockEntry
	eventCount uint64
	instrCount uint64
	closed     bool
	err        error
}

// NewWriter writes the corpus header for the given trace name and
// returns a Writer ready to receive events.
func NewWriter(w io.Writer, name string, opts Options) (*Writer, error) {
	opts, err := opts.withDefaults()
	if err != nil {
		return nil, err
	}
	if len(name) > trace.MaxNameLen {
		return nil, fmt.Errorf("corpus: name too long (%d bytes)", len(name))
	}
	cw := &Writer{sum: sha256.New(), opts: opts, name: name}
	cw.w = io.MultiWriter(w, cw.sum)
	var hdr []byte
	hdr = append(hdr, magic...)
	hdr = append(hdr, version, 0, 0, 0) // flags and reserved bytes are zero
	hdr = binary.LittleEndian.AppendUint32(hdr, uint32(opts.BlockEvents))
	hdr = binary.AppendUvarint(hdr, uint64(len(name)))
	hdr = append(hdr, name...)
	if err := cw.write(hdr); err != nil {
		return nil, err
	}
	return cw, nil
}

// write appends raw bytes to the file, tracking the offset.
func (w *Writer) write(p []byte) error {
	n, err := w.w.Write(p)
	w.off += uint64(n)
	if err != nil {
		w.err = err
	}
	return err
}

// ConsumeBatch implements trace.BatchSink; a sticky error asks the
// producer to stop. A closed Writer encodes nothing and reports false.
func (w *Writer) ConsumeBatch(batch []trace.Event) bool {
	for len(batch) > 0 && w.err == nil && !w.closed {
		run := batch[:min(len(batch), w.opts.BlockEvents-w.events, windowEvents)]
		batch = batch[len(run):]
		w.encode(run)
		if w.events == w.opts.BlockEvents {
			w.flushBlock()
		}
	}
	return w.err == nil && !w.closed
}

// windowEvents caps the events encode takes at once, which bounds the
// worst-case growth of each column past its contents whatever the
// block size.
const windowEvents = 1024

// growCol grows col to take need more bytes and returns it resliced
// to its capacity, with its length as the write offset.
func growCol(col []byte, need int) ([]byte, int) {
	col = slices.Grow(col, need)
	return col[:cap(col)], len(col)
}

// encode is the writer's kernel: it adds run, at most windowEvents
// events that fit in the current block, to the block's columns. Each
// column is grown once to the run's worst case, then written by index.
// The columns and delta baselines stay in locals and are stored back
// once; an event that cannot be encoded stops the run with a sticky
// error.
func (w *Writer) encode(run []trace.Event) {
	if w.events == 0 {
		w.basePC = w.lastPC
		w.baseAddr = w.lastAddr
	}
	k := len(run)
	kinds, nk := growCol(w.cols[colKinds], k)
	pcs, npc := growCol(w.cols[colPC], k*binary.MaxVarintLen64)
	addrs, naddr := growCol(w.cols[colAddr], k*binary.MaxVarintLen64)
	ns, nn := growCol(w.cols[colN], k*binary.MaxVarintLen32) // N <= MaxInstrCount
	blocks, nblk := growCol(w.cols[colBlock], k*binary.MaxVarintLen32)
	taken, nt := growCol(w.cols[colTaken], k/8+1)
	lastPC, lastAddr, instr, tb := w.lastPC, w.lastAddr, w.instrCount, w.takenBit
	i := 0
encode:
	for ; i < k; i++ {
		e := &run[i]
		switch e.Kind {
		case trace.Instr:
			if e.N > trace.MaxInstrCount {
				w.err = fmt.Errorf("corpus: instr count %d exceeds %d", e.N, trace.MaxInstrCount)
				break encode
			}
			n := uint64(max(e.N, 1)) // Event.Count of an Instr
			nn = trace.PutUvarint(ns, nn, n)
			instr += n
		case trace.Load, trace.Store:
			npc = trace.PutUvarint(pcs, npc, trace.Zigzag(int64(e.PC-lastPC)))
			naddr = trace.PutUvarint(addrs, naddr, trace.Zigzag(int64(uint64(e.Addr)-lastAddr)))
			lastPC, lastAddr = e.PC, uint64(e.Addr)
			instr++
		case trace.BlockBegin, trace.BlockEnd:
			if uint(e.Block) > trace.MaxBlockID {
				w.err = fmt.Errorf("corpus: block ID %d out of range [0, %d]", e.Block, trace.MaxBlockID)
				break encode
			}
			nblk = trace.PutUvarint(blocks, nblk, uint64(e.Block))
			instr++
		case trace.Branch:
			npc = trace.PutUvarint(pcs, npc, trace.Zigzag(int64(e.PC-lastPC)))
			lastPC = e.PC
			if tb%8 == 0 {
				taken[nt] = 0
				nt++
			}
			if e.Taken {
				taken[nt-1] |= 1 << (tb % 8)
			}
			tb++
			instr++
		default:
			w.err = fmt.Errorf("corpus: cannot encode kind %v", e.Kind)
			break encode
		}
		kinds[nk] = byte(e.Kind)
		nk++
	}
	w.cols = [numCols][]byte{kinds[:nk], pcs[:npc], addrs[:naddr], ns[:nn], blocks[:nblk], taken[:nt]}
	w.lastPC, w.lastAddr, w.instrCount, w.takenBit = lastPC, lastAddr, instr, tb
	w.events += i
	w.eventCount += uint64(i)
}

// flushBlock writes the current block payload, its columns laid end to
// end in the block buffer and handed over in one write, and records its
// index entry.
func (w *Writer) flushBlock() {
	if w.err != nil || w.events == 0 {
		return
	}
	entry := blockEntry{
		offset:   w.off,
		events:   uint32(w.events),
		basePC:   w.basePC,
		baseAddr: w.baseAddr,
	}
	var raw int
	for i, col := range w.cols {
		entry.colLen[i] = uint32(len(col))
		raw += len(col)
	}
	blk := slices.Grow(w.blk[:0], raw)
	for i, col := range w.cols {
		blk = append(blk, col...)
		w.cols[i] = col[:0]
	}
	w.blk = blk
	entry.rawLen = uint32(raw)
	entry.storedLen = entry.rawLen
	if w.write(blk) != nil {
		return
	}
	w.index = append(w.index, entry)
	w.events = 0
	w.takenBit = 0
}

// Close flushes the final partial block and writes the index and
// trailer. The writer is unusable afterwards.
func (w *Writer) Close() error {
	if w.closed {
		return w.err
	}
	w.closed = true
	w.flushBlock()
	if w.err != nil {
		return w.err
	}
	indexOff := w.off
	var idx []byte
	for i := range w.index {
		idx = w.index[i].marshal(idx)
	}
	if err := w.write(idx); err != nil {
		return err
	}
	var tr []byte
	tr = binary.LittleEndian.AppendUint64(tr, indexOff)
	tr = binary.LittleEndian.AppendUint64(tr, uint64(len(idx)))
	tr = binary.LittleEndian.AppendUint64(tr, uint64(len(w.index)))
	tr = binary.LittleEndian.AppendUint64(tr, w.eventCount)
	tr = binary.LittleEndian.AppendUint64(tr, w.instrCount)
	tr = append(tr, magicEnd...)
	return w.write(tr)
}

// Sum returns the corpus content address: the hex SHA-256 over every
// byte written so far. Meaningful after Close.
func (w *Writer) Sum() string {
	return hex.EncodeToString(w.sum.Sum(nil))
}

// Events returns the number of events encoded.
func (w *Writer) Events() uint64 { return w.eventCount }

// Instructions returns the total dynamic instruction count encoded.
func (w *Writer) Instructions() uint64 { return w.instrCount }

// PackResult describes a corpus produced by Pack.
type PackResult struct {
	// Hash is the content address (hex SHA-256 of the file bytes).
	Hash string
	// Events and Instructions count what was packed.
	Events       uint64
	Instructions uint64
	// Bytes is the file size.
	Bytes int64
}

// Pack captures g's event stream (bounded to max dynamic instructions
// when max > 0) into a corpus file at path, written atomically via a
// temp file + rename so a crash never leaves a torn corpus behind.
func Pack(path string, g trace.Generator, max uint64, opts Options) (PackResult, error) {
	gen := g
	if max > 0 {
		gen = trace.Limit{Gen: g, Max: max}
	}
	dir, base := filepath.Split(path)
	if dir == "" {
		dir = "."
	}
	tmp, err := os.CreateTemp(dir, base+".tmp*")
	if err != nil {
		return PackResult{}, fmt.Errorf("corpus: %w", err)
	}
	defer os.Remove(tmp.Name())
	res, err := packTo(tmp, g.Name(), gen, opts)
	if err != nil {
		tmp.Close()
		return PackResult{}, err
	}
	if err := tmp.Close(); err != nil {
		return PackResult{}, fmt.Errorf("corpus: %w", err)
	}
	if err := os.Rename(tmp.Name(), path); err != nil {
		return PackResult{}, fmt.Errorf("corpus: %w", err)
	}
	return res, nil
}

// packTo drives gen into a Writer over w and reports the result.
func packTo(w io.Writer, name string, gen trace.Generator, opts Options) (PackResult, error) {
	cw, err := NewWriter(w, name, opts)
	if err != nil {
		return PackResult{}, err
	}
	trace.DriveBatches(gen, cw)
	if err := cw.Close(); err != nil {
		return PackResult{}, err
	}
	return PackResult{
		Hash:         cw.Sum(),
		Events:       cw.Events(),
		Instructions: cw.Instructions(),
		Bytes:        int64(cw.off),
	}, nil
}
