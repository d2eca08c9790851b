package check

import (
	"cbws/internal/mem"
	"cbws/internal/prefetch"
)

// RefSMSConfig mirrors the behavioural fields of prefetch.SMSConfig.
// Zero values are NOT defaulted here.
type RefSMSConfig struct {
	AGTEntries    int
	FilterEntries int
	PHTEntries    int
	RegionBytes   uint64
	OffsetBits    int
}

type refSMSGeneration struct {
	trigger uint64
	pattern uint64
	lru     uint64
}

type refSMSFilterEntry struct {
	trigger   uint64
	firstLine int
	lru       uint64
}

type refSMSPHTEntry struct {
	pattern uint64
	lru     uint64
}

// RefSMS is the naive reference for prefetch.SMS: three Go maps of
// heap-allocated entries, each evicted by scanning the whole map for
// the lowest LRU stamp. Every table update takes a fresh stamp from one
// counter, so the lowest stamp is unique and map iteration order
// cannot pick the victim.
type RefSMS struct {
	cfg    RefSMSConfig
	rc     mem.RegionConfig
	agt    map[mem.Region]*refSMSGeneration
	filter map[mem.Region]*refSMSFilterEntry
	pht    map[uint64]*refSMSPHTEntry
	clock  uint64
}

// NewRefSMS builds the reference SMS.
func NewRefSMS(cfg RefSMSConfig) *RefSMS {
	return &RefSMS{
		cfg:    cfg,
		rc:     mem.RegionConfig{SizeBytes: cfg.RegionBytes},
		agt:    make(map[mem.Region]*refSMSGeneration),
		filter: make(map[mem.Region]*refSMSFilterEntry),
		pht:    make(map[uint64]*refSMSPHTEntry),
	}
}

func (s *RefSMS) stamp() uint64 {
	s.clock++
	return s.clock
}

func (s *RefSMS) endGeneration(g *refSMSGeneration) {
	if e, ok := s.pht[g.trigger]; ok {
		e.pattern = g.pattern
		e.lru = s.stamp()
		return
	}
	if len(s.pht) >= s.cfg.PHTEntries {
		var victim uint64
		best := ^uint64(0)
		for k, e := range s.pht {
			if e.lru < best {
				best = e.lru
				victim = k
			}
		}
		delete(s.pht, victim)
	}
	s.pht[g.trigger] = &refSMSPHTEntry{pattern: g.pattern, lru: s.stamp()}
}

func (s *RefSMS) evictOldestAGT() {
	var victim mem.Region
	var vg *refSMSGeneration
	best := ^uint64(0)
	for r, g := range s.agt {
		if g.lru < best {
			best = g.lru
			victim = r
			vg = g
		}
	}
	if vg != nil {
		s.endGeneration(vg)
		delete(s.agt, victim)
	}
}

// OnAccess mirrors prefetch.SMS.OnAccess.
func (s *RefSMS) OnAccess(a prefetch.Access, issue prefetch.IssueFunc) {
	region := s.rc.RegionOf(a.Addr)
	offset := s.rc.OffsetOf(a.Addr)

	if g, ok := s.agt[region]; ok {
		g.pattern |= 1 << uint(offset)
		g.lru = s.stamp()
		return
	}
	if f, ok := s.filter[region]; ok {
		if f.firstLine == offset {
			f.lru = s.stamp()
			return
		}
		delete(s.filter, region)
		if len(s.agt) >= s.cfg.AGTEntries {
			s.evictOldestAGT()
		}
		s.agt[region] = &refSMSGeneration{
			trigger: f.trigger,
			pattern: (1 << uint(f.firstLine)) | (1 << uint(offset)),
			lru:     s.stamp(),
		}
		return
	}

	sig := a.PC<<uint(s.cfg.OffsetBits) | uint64(offset)
	if e, ok := s.pht[sig]; ok {
		e.lru = s.stamp()
		pattern := e.pattern
		for off := 0; off < s.rc.LinesPerRegion() && off < 64; off++ {
			if pattern&(1<<uint(off)) != 0 && off != offset {
				issue(s.rc.LineAt(region, off))
			}
		}
	}
	if len(s.filter) >= s.cfg.FilterEntries {
		var victim mem.Region
		best := ^uint64(0)
		for r, f := range s.filter {
			if f.lru < best {
				best = f.lru
				victim = r
			}
		}
		delete(s.filter, victim)
	}
	s.filter[region] = &refSMSFilterEntry{trigger: sig, firstLine: offset, lru: s.stamp()}
}

// OnCacheEvict mirrors prefetch.SMS.OnCacheEvict.
func (s *RefSMS) OnCacheEvict(l mem.LineAddr) {
	region := s.rc.RegionOf(l.Byte())
	if g, ok := s.agt[region]; ok {
		s.endGeneration(g)
		delete(s.agt, region)
		return
	}
	delete(s.filter, region)
}
