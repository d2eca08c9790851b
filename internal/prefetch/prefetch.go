// Package prefetch defines the prefetcher interface shared by every
// scheme in the study and implements the four baselines the paper
// compares against: stride (Fu/Patel + Jouppi), GHB G/DC and GHB PC/DC
// (Nesbit & Smith, HPCA'04), and spatial memory streaming (Somogyi et
// al., ISCA'06). The paper's own CBWS prefetcher lives in internal/core
// and plugs into the same interface; the CBWS+SMS integration is the
// Composite type.
//
// All prefetchers observe the demand access stream at commit order (the
// same vantage point as the paper's hardware) and emit candidate line
// addresses through an IssueFunc; the cache hierarchy decides whether a
// candidate actually allocates a fill.
package prefetch

import (
	"cbws/internal/mem"
)

// Access is one demand access as presented to a prefetcher for training.
type Access struct {
	PC    uint64
	Addr  mem.Addr
	Line  mem.LineAddr
	Write bool
	HitL1 bool
	HitL2 bool // valid only when !HitL1
	// PfHit marks the first demand use of a prefetched line (either a
	// completed or an in-flight prefetch). Prefetchers that train on
	// misses also train on these so that a working prefetch stream
	// keeps advancing instead of silencing its own training input.
	PfHit bool
}

// Miss reports whether the access missed the whole hierarchy. It reads
// the access through a pointer: Access has too many fields to live in
// registers, and a value receiver copies it out of its stack spill with
// wide loads over the narrower stores that wrote it.
//
//cbws:hotpath
func (a *Access) Miss() bool { return !a.HitL1 && !a.HitL2 }

// IssueFunc receives candidate prefetch line addresses.
type IssueFunc func(mem.LineAddr)

// Prefetcher is a hardware prefetching scheme.
type Prefetcher interface {
	// Name identifies the scheme in reports ("sms", "cbws+sms", ...).
	Name() string
	// OnAccess trains on one demand access and may issue prefetches.
	OnAccess(a Access, issue IssueFunc)
	// OnBlockBegin observes a BLOCK_BEGIN marker.
	OnBlockBegin(id int)
	// OnBlockEnd observes a BLOCK_END marker and may issue prefetches.
	OnBlockEnd(id int, issue IssueFunc)
	// StorageBits returns the scheme's hardware budget in bits, for
	// the Table III comparison.
	StorageBits() uint64
	// Reset returns the prefetcher to power-on state.
	Reset()
}

// EvictionObserver is implemented by prefetchers that track cache
// evictions — SMS ends a spatial-region generation when one of the
// region's lines leaves the cache (Somogyi et al., Section 3). The
// simulator wires L1 evictions to this interface when the active
// prefetcher implements it.
type EvictionObserver interface {
	OnCacheEvict(l mem.LineAddr)
}

// NoBlocks provides no-op block handlers for schemes that have no notion
// of code blocks (every baseline in the paper's Section III).
type NoBlocks struct{}

// OnBlockBegin implements Prefetcher.
func (NoBlocks) OnBlockBegin(int) {}

// OnBlockEnd implements Prefetcher.
func (NoBlocks) OnBlockEnd(int, IssueFunc) {}

// None is the no-prefetching baseline.
type None struct{ NoBlocks }

// NewNone returns the no-prefetch scheme.
func NewNone() *None { return &None{} }

// Name implements Prefetcher.
func (*None) Name() string { return "none" }

// OnAccess implements Prefetcher (no training, no prefetches).
func (*None) OnAccess(Access, IssueFunc) {}

// StorageBits implements Prefetcher.
func (*None) StorageBits() uint64 { return 0 }

// Reset implements Prefetcher.
func (*None) Reset() {}
