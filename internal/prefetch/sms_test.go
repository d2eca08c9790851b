package prefetch

import (
	"sort"
	"testing"

	"cbws/internal/mem"
)

// smsAccess builds an L1 access (SMS trains on all L1 activity).
func smsAccess(pc uint64, addr mem.Addr) Access {
	return Access{PC: pc, Addr: addr, Line: mem.LineOf(addr)}
}

// touchRegion walks the given line offsets of the 2KB region at base.
func touchRegion(p *SMS, c *collect, pc uint64, base mem.Addr, offsets []int) {
	for _, off := range offsets {
		p.OnAccess(smsAccess(pc, base+mem.Addr(off*mem.LineSize)), c.issue)
	}
}

func TestSMSLearnsAndPredictsFootprint(t *testing.T) {
	p := NewSMS(SMSConfig{})
	c := &collect{}
	const regionA = mem.Addr(0x10000) // 2KB-aligned
	const regionB = mem.Addr(0x20000)

	// Generation 1 in region A: touch offsets 0, 3, 7, 9.
	touchRegion(p, c, 0x40, regionA, []int{0, 3, 7, 9})
	// End the generation via eviction of one of its lines.
	p.OnCacheEvict(mem.LineOf(regionA))
	if len(c.lines) != 0 {
		t.Fatalf("prefetches before any PHT training: %v", c.lines)
	}

	// New generation in region B with the same trigger (PC, offset 0):
	// the learned footprint must be prefetched.
	p.OnAccess(smsAccess(0x40, regionB), c.issue)
	want := []mem.LineAddr{
		mem.LineOf(regionB + 3*mem.LineSize),
		mem.LineOf(regionB + 7*mem.LineSize),
		mem.LineOf(regionB + 9*mem.LineSize),
	}
	got := append([]mem.LineAddr{}, c.lines...)
	sort.Slice(got, func(i, j int) bool { return got[i] < got[j] })
	if len(got) != len(want) {
		t.Fatalf("issued %v, want %v", got, want)
	}
	for i := range want {
		if got[i] != want[i] {
			t.Errorf("issued %v, want %v", got, want)
		}
	}
}

func TestSMSTriggerMismatchNoPrediction(t *testing.T) {
	p := NewSMS(SMSConfig{})
	c := &collect{}
	regionA := mem.Addr(0x10000)
	touchRegion(p, c, 0x40, regionA, []int{0, 3, 7})
	p.OnCacheEvict(mem.LineOf(regionA))

	// Different trigger PC: no prediction.
	p.OnAccess(smsAccess(0x99, mem.Addr(0x20000)), c.issue)
	if len(c.lines) != 0 {
		t.Errorf("predicted for wrong trigger PC: %v", c.lines)
	}
	// Different trigger offset: no prediction.
	p.OnAccess(smsAccess(0x40, mem.Addr(0x30000)+5*mem.LineSize), c.issue)
	if len(c.lines) != 0 {
		t.Errorf("predicted for wrong trigger offset: %v", c.lines)
	}
}

func TestSMSSingleLineRegionNotCommitted(t *testing.T) {
	p := NewSMS(SMSConfig{})
	c := &collect{}
	// Only one line touched: the region stays in the filter table and
	// produces no PHT pattern.
	p.OnAccess(smsAccess(0x40, mem.Addr(0x10000)), c.issue)
	p.OnCacheEvict(mem.LineOf(mem.Addr(0x10000)))
	p.OnAccess(smsAccess(0x40, mem.Addr(0x20000)), c.issue)
	if len(c.lines) != 0 {
		t.Errorf("single-line region trained the PHT: %v", c.lines)
	}
}

func TestSMSRepeatedLineStaysInFilter(t *testing.T) {
	p := NewSMS(SMSConfig{})
	c := &collect{}
	for i := 0; i < 5; i++ {
		p.OnAccess(smsAccess(0x40, mem.Addr(0x10000)+7), c.issue)
	}
	if p.agtIndex.Len() != 0 {
		t.Error("repeated same-line accesses promoted to AGT")
	}
	if p.filtIndex.Len() != 1 {
		t.Errorf("filter has %d entries", p.filtIndex.Len())
	}
}

func TestSMSGenerationEndsOnAGTEviction(t *testing.T) {
	p := NewSMS(SMSConfig{AGTEntries: 2})
	c := &collect{}
	// Three concurrent generations with 2 AGT entries: the LRU one is
	// committed to the PHT on eviction.
	for i := 0; i < 3; i++ {
		base := mem.Addr(0x10000 + i*0x10000)
		touchRegion(p, c, 0x40, base, []int{0, 4})
	}
	// Region 0's generation must have been committed: a new region with
	// the same trigger predicts offset 4.
	c.lines = nil
	p.OnAccess(smsAccess(0x40, mem.Addr(0x90000)), c.issue)
	if len(c.lines) != 1 || c.lines[0] != mem.LineOf(mem.Addr(0x90000)+4*mem.LineSize) {
		t.Errorf("issued %v", c.lines)
	}
}

func TestSMSPatternUpdatedOnRetrain(t *testing.T) {
	p := NewSMS(SMSConfig{})
	c := &collect{}
	regionA := mem.Addr(0x10000)
	touchRegion(p, c, 0x40, regionA, []int{0, 3})
	p.OnCacheEvict(mem.LineOf(regionA))

	// Re-train the same trigger with a different footprint.
	regionB := mem.Addr(0x20000)
	c.lines = nil
	touchRegion(p, c, 0x40, regionB, []int{0, 9})
	p.OnCacheEvict(mem.LineOf(regionB))

	c.lines = nil
	p.OnAccess(smsAccess(0x40, mem.Addr(0x30000)), c.issue)
	if len(c.lines) != 1 || c.lines[0] != mem.LineOf(mem.Addr(0x30000)+9*mem.LineSize) {
		t.Errorf("issued %v, want updated offset 9", c.lines)
	}
}

func TestSMSEvictOfUnknownRegionIsNoop(t *testing.T) {
	p := NewSMS(SMSConfig{})
	p.OnCacheEvict(12345) // must not panic
}

func TestSMSStorageBitsTableIII(t *testing.T) {
	// Table III: (5+48+36)*32 + (5+48+36+16)*32 + (16+48+5)*512
	// = 2848 + 3360 + 35328 = 41536 bits ≈ 5KB.
	if got := NewSMS(SMSConfig{}).StorageBits(); got != 41536 {
		t.Errorf("StorageBits = %d, want 41536", got)
	}
}

func TestSMSPHTEviction(t *testing.T) {
	p := NewSMS(SMSConfig{PHTEntries: 1})
	c := &collect{}
	// Two triggers trained; with one PHT entry only the newest remains.
	touchRegion(p, c, 0xA, mem.Addr(0x10000), []int{0, 2})
	p.OnCacheEvict(mem.LineOf(mem.Addr(0x10000)))
	touchRegion(p, c, 0xB, mem.Addr(0x20000), []int{0, 5})
	p.OnCacheEvict(mem.LineOf(mem.Addr(0x20000)))

	c.lines = nil
	p.OnAccess(smsAccess(0xA, mem.Addr(0x30000)), c.issue)
	if len(c.lines) != 0 {
		t.Errorf("evicted PHT entry predicted: %v", c.lines)
	}
	c.lines = nil
	p.OnAccess(smsAccess(0xB, mem.Addr(0x40000)), c.issue)
	if len(c.lines) != 1 {
		t.Errorf("surviving PHT entry missing: %v", c.lines)
	}
}

func TestSMSReset(t *testing.T) {
	p := NewSMS(SMSConfig{})
	c := &collect{}
	touchRegion(p, c, 0x40, mem.Addr(0x10000), []int{0, 3})
	p.OnCacheEvict(mem.LineOf(mem.Addr(0x10000)))
	p.Reset()
	c.lines = nil
	p.OnAccess(smsAccess(0x40, mem.Addr(0x20000)), c.issue)
	if len(c.lines) != 0 {
		t.Errorf("reset did not clear the PHT: %v", c.lines)
	}
}

func TestSMSRejectsNonPowerOfTwoRegion(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Error("NewSMS accepted a 3000-byte region")
		}
	}()
	NewSMS(SMSConfig{RegionBytes: 3000})
}
