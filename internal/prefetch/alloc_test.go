package prefetch

import (
	"testing"

	"cbws/internal/mem"
)

// TestBaselinesAllocFree requires the fixed-table baselines to train,
// predict and evict without allocating once warm. The stream cycles
// over more PCs and regions than the small tables hold, so every
// access also exercises the replacement paths, and SMS sees evictions
// both between accesses and from inside its issue loop.
func TestBaselinesAllocFree(t *testing.T) {
	schemes := []Prefetcher{
		NewStride(StrideConfig{TableEntries: 4}),
		NewStride(StrideConfig{}),
		NewGHB(GHBConfig{Mode: PCDC, BufferEntries: 5}),
		NewGHB(GHBConfig{Mode: PCDC}),
		NewGHB(GHBConfig{Mode: GlobalDC}),
		NewSMS(SMSConfig{AGTEntries: 4, FilterEntries: 4, PHTEntries: 8}),
		NewSMS(SMSConfig{}),
	}
	for _, p := range schemes {
		eo, _ := p.(EvictionObserver)
		i := 0
		issue := func(l mem.LineAddr) {
			if eo != nil && l&3 == 0 {
				eo.OnCacheEvict(l - 40)
			}
		}
		iter := func() {
			pc := 0x400000 + uint64(i%7)*0x40
			line := mem.LineAddr(1<<20 + (i%7)*4096 + (i/7)%24*3)
			p.OnAccess(missAt(pc, line), issue)
			if eo != nil && i%5 == 0 {
				eo.OnCacheEvict(line)
			}
			i++
		}
		for k := 0; k < 5000; k++ {
			iter()
		}
		if avg := testing.AllocsPerRun(500, iter); avg != 0 {
			t.Errorf("%s: warm OnAccess allocates %.1f objects, want 0", p.Name(), avg)
		}
	}
}
