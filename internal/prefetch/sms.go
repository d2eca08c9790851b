package prefetch

import (
	"fmt"
	"math/bits"

	"cbws/internal/mem"
)

// SMSConfig parametrizes spatial memory streaming (Table II: 32-entry
// active generation table, 32-entry filter table, 512-entry pattern
// history table, 2KB regions).
type SMSConfig struct {
	AGTEntries    int
	FilterEntries int
	PHTEntries    int
	RegionBytes   uint64
	// Table III field widths for storage accounting.
	PCBits      int
	TagBits     int
	OffsetBits  int
	PatternBits int
}

// DefaultSMSConfig returns the paper's configuration.
func DefaultSMSConfig() SMSConfig {
	return SMSConfig{
		AGTEntries:    32,
		FilterEntries: 32,
		PHTEntries:    512,
		RegionBytes:   2 << 10,
		PCBits:        48,
		TagBits:       36,
		OffsetBits:    5,
		PatternBits:   16,
	}
}

// invalidRegion marks an empty AGT or filter entry in the compact
// region arrays. Regions are byte addresses shifted right by at least
// the line-size bits, so no real region reaches it.
const invalidRegion = ^uint64(0)

// smsGeneration is one active generation table (AGT) entry.
type smsGeneration struct {
	trigger uint64 // PC ⊕ offset signature of the first access
	pattern uint64 // bitmap of line offsets touched this generation
	lru     uint64
}

// smsFilterEntry is one filter table entry: a region touched once.
type smsFilterEntry struct {
	trigger   uint64
	firstLine int
	lru       uint64
}

// smsPHTEntry is one pattern history table entry.
type smsPHTEntry struct {
	sig     uint64
	pattern uint64
	lru     uint64
}

// SMS is the spatial memory streaming prefetcher: it learns the bitmap
// of cache lines touched within a spatial region during a "generation"
// and, when a new generation begins with the same trigger signature
// (PC + region offset), prefetches the learned footprint.
//
// The three tables are fixed arrays sized by the configuration, each
// found through a fixed index (the hardware tables' CAM match): the
// AGT and filter from region to slot, the PHT from signature to slot.
// The AGT and filter also keep a compact region array (invalidRegion
// when empty), which only an insert scans, for a free slot. Every
// table update takes a fresh stamp from one counter, so LRU order is
// total and a victim never depends on slot order. check.RefSMS is the
// map-based reference it is pinned to.
type SMS struct {
	NoBlocks
	cfg         SMSConfig
	regionShift uint   // log2(RegionBytes)
	offsetMask  uint64 // line offset within a region
	lineMask    uint64 // pattern bits that name a line of the region

	agtRegion  []uint64  // compact region per AGT entry
	agtIndex   mem.Index // region → AGT entry; its Len is the occupancy
	agt        []smsGeneration
	filtRegion []uint64  // compact region per filter entry
	filtIndex  mem.Index // region → filter entry; its Len is the occupancy
	filter     []smsFilterEntry
	pht        []smsPHTEntry // pht[:phtLen] are in use
	phtLen     int
	phtIndex   mem.Index // signature → pht slot

	clock uint64 // LRU stamp source
}

// NewSMS builds an SMS prefetcher; zero-value fields of cfg fall back to
// defaults. RegionBytes must be a power of two no smaller than a line.
func NewSMS(cfg SMSConfig) *SMS {
	def := DefaultSMSConfig()
	if cfg.AGTEntries == 0 {
		cfg.AGTEntries = def.AGTEntries
	}
	if cfg.FilterEntries == 0 {
		cfg.FilterEntries = def.FilterEntries
	}
	if cfg.PHTEntries == 0 {
		cfg.PHTEntries = def.PHTEntries
	}
	if cfg.RegionBytes == 0 {
		cfg.RegionBytes = def.RegionBytes
	}
	if cfg.PCBits == 0 {
		cfg.PCBits = def.PCBits
	}
	if cfg.TagBits == 0 {
		cfg.TagBits = def.TagBits
	}
	if cfg.OffsetBits == 0 {
		cfg.OffsetBits = def.OffsetBits
	}
	if cfg.PatternBits == 0 {
		cfg.PatternBits = def.PatternBits
	}
	if !mem.IsPow2(cfg.RegionBytes) || cfg.RegionBytes < mem.LineSize {
		panic(fmt.Sprintf("prefetch: SMS region size %d is not a power of two of at least one line", cfg.RegionBytes))
	}
	lines := cfg.RegionBytes / mem.LineSize
	lineMask := ^uint64(0)
	if lines < 64 {
		lineMask = 1<<lines - 1
	}
	s := &SMS{
		cfg:         cfg,
		regionShift: mem.Log2(cfg.RegionBytes),
		offsetMask:  lines - 1,
		lineMask:    lineMask,
		agtRegion:   make([]uint64, cfg.AGTEntries),
		agtIndex:    mem.NewIndex(cfg.AGTEntries),
		agt:         make([]smsGeneration, cfg.AGTEntries),
		filtRegion:  make([]uint64, cfg.FilterEntries),
		filtIndex:   mem.NewIndex(cfg.FilterEntries),
		filter:      make([]smsFilterEntry, cfg.FilterEntries),
		pht:         make([]smsPHTEntry, cfg.PHTEntries),
		phtIndex:    mem.NewIndex(cfg.PHTEntries),
	}
	s.Reset()
	return s
}

// Name implements Prefetcher.
func (s *SMS) Name() string { return "sms" }

// Reset implements Prefetcher.
func (s *SMS) Reset() {
	for i := range s.agtRegion {
		s.agtRegion[i] = invalidRegion
	}
	for i := range s.filtRegion {
		s.filtRegion[i] = invalidRegion
	}
	s.phtLen = 0
	s.agtIndex.Clear()
	s.filtIndex.Clear()
	s.phtIndex.Clear()
	s.clock = 0
}

// stamp returns the next LRU stamp. One strictly increasing counter
// stamps every table update, including the several generation ends
// one access's evictions can cause, so no two entries tie.
//
//cbws:hotpath
func (s *SMS) stamp() uint64 {
	s.clock++
	return s.clock
}

//cbws:hotpath
func (s *SMS) signature(pc uint64, offset int) uint64 {
	return pc<<uint(s.cfg.OffsetBits) | uint64(offset)
}

// freeSlot returns the first empty entry of a compact region array.
// Only an insert, after making room, calls it.
//
//cbws:hotpath
func freeSlot(regions []uint64) int {
	for i := range regions {
		if regions[i] == invalidRegion {
			return i
		}
	}
	panic("prefetch: SMS table has no free entry")
}

// endGeneration commits a finished generation's footprint to the PHT,
// replacing the LRU entry when the table is full.
//
//cbws:hotpath
func (s *SMS) endGeneration(trigger, pattern uint64) {
	st := s.stamp()
	if i, ok := s.phtIndex.Get(trigger); ok {
		s.pht[i].pattern = pattern
		s.pht[i].lru = st
		return
	}
	slot := s.phtLen
	if s.phtLen < len(s.pht) {
		s.phtLen++
	} else {
		slot = 0
		for i := 1; i < len(s.pht); i++ {
			if s.pht[i].lru < s.pht[slot].lru {
				slot = i
			}
		}
		s.phtIndex.Delete(s.pht[slot].sig)
	}
	s.pht[slot] = smsPHTEntry{sig: trigger, pattern: pattern, lru: st}
	s.phtIndex.Put(trigger, slot)
}

// endAGT ends the generation in AGT entry i and frees the entry.
//
//cbws:hotpath
func (s *SMS) endAGT(i int) {
	s.endGeneration(s.agt[i].trigger, s.agt[i].pattern)
	s.agtIndex.Delete(s.agtRegion[i])
	s.agtRegion[i] = invalidRegion
}

// evictOldestAGT ends and removes the LRU generation.
//
//cbws:hotpath
func (s *SMS) evictOldestAGT() {
	victim := -1
	for i, r := range s.agtRegion {
		if r != invalidRegion && (victim < 0 || s.agt[i].lru < s.agt[victim].lru) {
			victim = i
		}
	}
	if victim >= 0 {
		s.endAGT(victim)
	}
}

// dropFilter frees filter entry i.
//
//cbws:hotpath
func (s *SMS) dropFilter(i int) {
	s.filtIndex.Delete(s.filtRegion[i])
	s.filtRegion[i] = invalidRegion
}

// OnAccess trains on every L1 demand access, as in the original SMS
// design, and prefetches a region's learned footprint when a new
// generation begins.
//
//cbws:hotpath
func (s *SMS) OnAccess(a Access, issue IssueFunc) {
	region := uint64(a.Addr) >> s.regionShift
	offset := int(uint64(a.Addr) >> mem.LineShift & s.offsetMask)

	if i, ok := s.agtIndex.Get(region); ok {
		s.agt[i].pattern |= 1 << uint(offset)
		s.agt[i].lru = s.stamp()
		return
	}
	if i, ok := s.filtIndex.Get(region); ok {
		f := &s.filter[i]
		if f.firstLine == offset {
			f.lru = s.stamp()
			return // still a single-line region
		}
		// Second distinct line: promote to an active generation.
		trigger, first := f.trigger, f.firstLine
		s.dropFilter(i)
		if s.agtIndex.Len() >= len(s.agt) {
			s.evictOldestAGT()
		}
		j := freeSlot(s.agtRegion)
		s.agtRegion[j] = region
		s.agtIndex.Put(region, j)
		s.agt[j] = smsGeneration{
			trigger: trigger,
			pattern: (1 << uint(first)) | (1 << uint(offset)),
			lru:     s.stamp(),
		}
		return
	}

	// First access of a new generation: predict from the PHT and
	// allocate a filter entry.
	sig := s.signature(a.PC, offset)
	if i, ok := s.phtIndex.Get(sig); ok {
		s.pht[i].lru = s.stamp()
		// Copy the pattern first: issuing can evict L1 lines, and the
		// re-entrant OnCacheEvict may end generations that replace
		// this very PHT entry.
		fp := s.pht[i].pattern & s.lineMask &^ (1 << uint(offset))
		for ; fp != 0; fp &= fp - 1 {
			off := uint64(bits.TrailingZeros64(fp))
			issue(mem.LineOf(mem.Addr(region<<s.regionShift + off<<mem.LineShift)))
		}
	}
	if s.filtIndex.Len() >= len(s.filter) {
		victim := -1
		for i, r := range s.filtRegion {
			if r != invalidRegion && (victim < 0 || s.filter[i].lru < s.filter[victim].lru) {
				victim = i
			}
		}
		s.dropFilter(victim)
	}
	j := freeSlot(s.filtRegion)
	s.filtRegion[j] = region
	s.filtIndex.Put(region, j)
	s.filter[j] = smsFilterEntry{trigger: sig, firstLine: offset, lru: s.stamp()}
}

// OnCacheEvict ends the generation of the region containing the evicted
// line, committing its footprint to the pattern history table — the
// original SMS trigger for generation completion.
//
//cbws:hotpath
func (s *SMS) OnCacheEvict(l mem.LineAddr) {
	region := uint64(l.Byte()) >> s.regionShift
	if i, ok := s.agtIndex.Get(region); ok {
		s.endAGT(i)
		return
	}
	if i, ok := s.filtIndex.Get(region); ok {
		s.dropFilter(i)
	}
}

// Check verifies that the AGT and filter indexes agree with their
// region arrays: each holds exactly the live regions, each mapped to
// its own entry. Tests and fuzz targets call it between accesses; it
// does not require check.Enabled.
func (s *SMS) Check() error {
	if err := checkRegionIndex("AGT", s.agtRegion, &s.agtIndex); err != nil {
		return err
	}
	return checkRegionIndex("filter", s.filtRegion, &s.filtIndex)
}

func checkRegionIndex(table string, regions []uint64, x *mem.Index) error {
	live := 0
	for i, r := range regions {
		if r == invalidRegion {
			continue
		}
		live++
		if j, ok := x.Get(r); !ok || j != i {
			return fmt.Errorf("sms %s: region %#x in entry %d, index gives (%d, %v)", table, r, i, j, ok)
		}
	}
	if x.Len() != live {
		return fmt.Errorf("sms %s: %d live entries, %d indexed", table, live, x.Len())
	}
	return nil
}

var _ EvictionObserver = (*SMS)(nil)

// StorageBits implements the Table III estimate:
// AGT + Filter: (offset + PC + tag) × 32 and (offset + PC + tag + pattern) × 32;
// PHT: (pattern + PC + offset) × 512.
func (s *SMS) StorageBits() uint64 {
	agt := uint64(s.cfg.OffsetBits+s.cfg.PCBits+s.cfg.TagBits) * uint64(s.cfg.AGTEntries)
	filter := uint64(s.cfg.OffsetBits+s.cfg.PCBits+s.cfg.TagBits+s.cfg.PatternBits) * uint64(s.cfg.FilterEntries)
	pht := uint64(s.cfg.PatternBits+s.cfg.PCBits+s.cfg.OffsetBits) * uint64(s.cfg.PHTEntries)
	return agt + filter + pht
}
