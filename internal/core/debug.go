package core

import (
	"fmt"
	"strings"
)

// TableEntryView is a read-only snapshot of one differential history
// table slot, for debugging and introspection.
type TableEntryView struct {
	Valid bool
	Tag   uint16
	Diff  Diff
}

// TableDump snapshots the differential history table.
func (p *Prefetcher) TableDump() []TableEntryView {
	out := make([]TableEntryView, len(p.tags))
	for i, k := range p.tags {
		v := TableEntryView{Valid: k&tableValid != 0, Tag: uint16(k)}
		if v.Valid {
			v.Diff = make(Diff, 0, p.diffLen[i])
			for _, s := range row(p.diffs, p.mv, i, p.diffLen[i]) {
				if s == invalidStride {
					continue
				}
				v.Diff = append(v.Diff, int64(s))
			}
		}
		out[i] = v
	}
	return out
}

// CurrentCBWS returns the working set being traced for the active block
// (empty outside blocks).
func (p *Prefetcher) CurrentCBWS() Vector {
	return append(Vector(nil), row(p.sets, p.mv, p.head, p.setLen[p.head])...)
}

// LastCBWS returns the working set of the i-th previous block instance
// (0 = most recent), or nil if none is recorded.
func (p *Prefetcher) LastCBWS(i int) Vector {
	if i < 0 || i >= p.cfg.Steps {
		return nil
	}
	b := (p.head + 1 + i) % len(p.setLen)
	return append(Vector(nil), row(p.sets, p.mv, b, p.setLen[b])...)
}

// String summarizes the prefetcher state: active context, table
// occupancy and counters.
func (p *Prefetcher) String() string {
	var b strings.Builder
	fmt.Fprintf(&b, "cbws{block=%d inBlock=%v confident=%v table=%d/%d", p.curBlock, p.inBlock, p.confident, p.filled, len(p.tags))
	fmt.Fprintf(&b, " blocks=%d hits=%d misses=%d predicted=%d overflows=%d}",
		p.Stats.Blocks, p.Stats.TableHits, p.Stats.TableMisses, p.Stats.LinesPredicted, p.Stats.Overflows)
	return b.String()
}
