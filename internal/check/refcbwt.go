package check

import (
	"encoding/binary"
	"fmt"

	"cbws/internal/mem"
	"cbws/internal/trace"
)

// RefCBWTEncode is the reference for trace.Writer: the CBWT stream of
// a trace called name that holds events, header and terminator
// included. It appends event by event, each field through
// binary.AppendUvarint or binary.AppendVarint, and restates the format
// from its specification (magic "CBWT", version 1, kind byte plus
// fields, PC and address as signed deltas against the previous memory
// or branch event, terminator 0xFF) instead of reusing the writer's
// kernel or constants.
//
// n counts the events encoded. When the format cannot hold events[n]
// (an Instr count above trace.MaxInstrCount, a block ID outside
// [0, trace.MaxBlockID], or an unknown kind) the result is no stream,
// n, and the error trace.Writer reports for that event.
func RefCBWTEncode(name string, events []trace.Event) (stream []byte, n int, err error) {
	out := append([]byte("CBWT"), 1)
	out = binary.AppendUvarint(out, uint64(len(name)))
	out = append(out, name...)
	var lastPC, lastAddr uint64
	for i, e := range events {
		out = append(out, byte(e.Kind))
		switch e.Kind {
		case trace.Instr:
			if e.N > trace.MaxInstrCount {
				return nil, i, fmt.Errorf("trace: instr count %d exceeds %d", e.N, trace.MaxInstrCount)
			}
			out = binary.AppendUvarint(out, uint64(e.Count()))
		case trace.Load, trace.Store:
			out = binary.AppendVarint(out, int64(e.PC)-int64(lastPC))
			out = binary.AppendVarint(out, int64(e.Addr)-int64(lastAddr))
			lastPC, lastAddr = e.PC, uint64(e.Addr)
		case trace.BlockBegin, trace.BlockEnd:
			if e.Block < 0 || e.Block > trace.MaxBlockID {
				return nil, i, fmt.Errorf("trace: block ID %d out of range [0, %d]", e.Block, trace.MaxBlockID)
			}
			out = binary.AppendUvarint(out, uint64(e.Block))
		case trace.Branch:
			out = binary.AppendVarint(out, int64(e.PC)-int64(lastPC))
			lastPC = e.PC
			taken := byte(0)
			if e.Taken {
				taken = 1
			}
			out = append(out, taken)
		default:
			return nil, i, fmt.Errorf("trace: cannot encode kind %v", e.Kind)
		}
	}
	return append(out, 0xFF), len(events), nil
}

// RefCBWTDecode is the reference for trace.ChunkDecoder: it decodes a
// whole CBWT stream in one pass, field by field through binary.Uvarint
// and binary.Varint, and restates the format's checks from its
// specification. It returns the name from the header, the events
// before the first fault, and the error trace.ChunkDecoder reports for
// that fault followed by Finish: a bad magic or version, a name longer
// than trace.MaxNameLen, an Instr count above trace.MaxInstrCount, a
// block ID above trace.MaxBlockID, a branch outcome other than 0 or 1,
// a varint that overflows 64 bits, an unknown kind, or a stream that
// ends before its terminator. Bytes after the terminator are ignored.
func RefCBWTDecode(stream []byte) (name string, events []trace.Event, err error) {
	bad := func(format string, args ...any) error {
		return fmt.Errorf("%w: "+format, append([]any{trace.ErrBadTrace}, args...)...)
	}
	truncated := bad("truncated stream (no terminator)")
	if len(stream) < 5 {
		return "", nil, truncated
	}
	if string(stream[:4]) != "CBWT" {
		return "", nil, bad("bad magic %q", stream[:4])
	}
	if stream[4] != 1 {
		return "", nil, bad("unsupported version %d", stream[4])
	}
	nameLen, n := binary.Uvarint(stream[5:])
	switch {
	case n == 0:
		return "", nil, truncated
	case n < 0 || nameLen > trace.MaxNameLen:
		return "", nil, bad("name too long")
	case uint64(len(stream)-5-n) < nameLen:
		return "", nil, truncated
	}
	p := 5 + n
	name = string(stream[p : p+int(nameLen)])
	p += int(nameLen)
	var lastPC, lastAddr uint64
	for p < len(stream) {
		kind := stream[p]
		p++
		switch kind {
		case 0: // Instr
			v, n := binary.Uvarint(stream[p:])
			if n == 0 {
				return name, events, truncated
			}
			if n < 0 || v > trace.MaxInstrCount {
				return name, events, bad("instr count %d exceeds %d", v, trace.MaxInstrCount)
			}
			events = append(events, trace.Event{Kind: trace.Instr, N: int(v)})
			p += n
		case 1, 2: // Load, Store
			dpc, n := binary.Varint(stream[p:])
			if n == 0 {
				return name, events, truncated
			}
			if n < 0 {
				return name, events, bad("bad pc delta")
			}
			p += n
			daddr, n := binary.Varint(stream[p:])
			if n == 0 {
				return name, events, truncated
			}
			if n < 0 {
				return name, events, bad("bad addr delta")
			}
			p += n
			lastPC += uint64(dpc)
			lastAddr += uint64(daddr)
			events = append(events, trace.Event{Kind: trace.Kind(kind), PC: lastPC, Addr: mem.Addr(lastAddr)})
		case 3, 4: // BlockBegin, BlockEnd
			v, n := binary.Uvarint(stream[p:])
			if n == 0 {
				return name, events, truncated
			}
			if n < 0 || v > trace.MaxBlockID {
				return name, events, bad("block ID %d exceeds %d", v, trace.MaxBlockID)
			}
			events = append(events, trace.Event{Kind: trace.Kind(kind), Block: int(v)})
			p += n
		case 5: // Branch
			dpc, n := binary.Varint(stream[p:])
			if n == 0 {
				return name, events, truncated
			}
			if n < 0 {
				return name, events, bad("bad pc delta")
			}
			p += n
			taken, n := binary.Uvarint(stream[p:])
			if n == 0 {
				return name, events, truncated
			}
			if n < 0 || taken > 1 {
				return name, events, bad("branch outcome %d is not 0 or 1", taken)
			}
			p += n
			lastPC += uint64(dpc)
			events = append(events, trace.Event{Kind: trace.Branch, PC: lastPC, Taken: taken == 1})
		case 0xFF:
			return name, events, nil
		default:
			return name, events, bad("unknown kind %d", kind)
		}
	}
	return name, events, truncated
}
