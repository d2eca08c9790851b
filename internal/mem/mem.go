// Package mem provides the elementary address arithmetic shared by every
// component of the simulator: byte addresses, cache-line addresses and
// spatial regions.
//
// Throughout the code base a "line address" is a byte address divided by
// the cache line size (64 bytes, as in Table II of the paper); prefetchers
// and caches operate on line addresses so that two accesses within the
// same line compare equal.
package mem

import "fmt"

// Addr is a byte address in the simulated physical address space.
type Addr uint64

// LineAddr is a cache-line address: a byte address with the low
// LineShift bits dropped.
type LineAddr uint64

const (
	// LineSize is the cache line size in bytes (Table II).
	LineSize = 64
	// LineShift is log2(LineSize).
	LineShift = 6
	// PageSize is the physical page size in bytes (Table II).
	PageSize = 4096
)

// LineOf returns the cache-line address containing a.
//
//cbws:hotpath
func LineOf(a Addr) LineAddr { return LineAddr(a >> LineShift) }

// Byte returns the byte address of the first byte of line l.
//
//cbws:hotpath
func (l LineAddr) Byte() Addr { return Addr(l) << LineShift }

// Add returns the line address offset by delta lines. Negative deltas are
// permitted; the result wraps like two's-complement arithmetic, matching
// hardware adders.
//
//cbws:hotpath
func (l LineAddr) Add(delta int64) LineAddr { return LineAddr(int64(l) + delta) }

// Delta returns the signed line-stride from a to l (l - a).
//
//cbws:hotpath
func (l LineAddr) Delta(a LineAddr) int64 { return int64(l) - int64(a) }

func (l LineAddr) String() string { return fmt.Sprintf("L%#x", uint64(l)) }

// Region identifies a fixed-size, aligned spatial region. SMS (Somogyi et
// al., ISCA'06) groups lines by region; the paper configures 2KB regions.
type Region uint64

// RegionConfig describes a power-of-two region geometry.
type RegionConfig struct {
	// SizeBytes is the region size; must be a power of two and a
	// multiple of LineSize.
	SizeBytes uint64
}

// LinesPerRegion returns the number of cache lines per region.
func (rc RegionConfig) LinesPerRegion() int { return int(rc.SizeBytes / LineSize) }

// RegionOf returns the region containing byte address a.
func (rc RegionConfig) RegionOf(a Addr) Region { return Region(uint64(a) / rc.SizeBytes) }

// OffsetOf returns the line offset of byte address a within its region.
func (rc RegionConfig) OffsetOf(a Addr) int {
	return int((uint64(a) % rc.SizeBytes) / LineSize)
}

// Base returns the byte address of the first byte of region r.
func (rc RegionConfig) Base(r Region) Addr { return Addr(uint64(r) * rc.SizeBytes) }

// LineAt returns the line address of the line at offset within region r.
func (rc RegionConfig) LineAt(r Region, offset int) LineAddr {
	return LineOf(rc.Base(r) + Addr(offset*LineSize))
}

// IsPow2 reports whether v is a power of two.
func IsPow2(v uint64) bool { return v != 0 && v&(v-1) == 0 }

// Log2 returns floor(log2(v)) for v > 0.
func Log2(v uint64) uint {
	var n uint
	for v > 1 {
		v >>= 1
		n++
	}
	return n
}
