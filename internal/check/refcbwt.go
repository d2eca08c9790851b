package check

import (
	"encoding/binary"
	"fmt"

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
