package learned

import (
	"cbws/internal/check"
	"cbws/internal/mem"
	"cbws/internal/prefetch"
)

// PythiaConfig parametrizes the Pythia-style reinforcement-learning
// prefetcher. The design follows Bera et al. (MICRO 2021): a program
// feature vector — the trigger PC with a short global delta history,
// and the page offset with the most recent delta — is hashed into two
// Q-value tables over a configurable action space of prefetch offsets;
// actions are evaluated through a FIFO evaluation queue whose entries
// are rewarded by subsequent demand accesses and whose evictions drive
// fixed-point SARSA updates. Zero-value fields fall back to defaults.
type PythiaConfig struct {
	// Actions is the prefetch-offset action space in cache lines.
	// Offset 0 is the no-prefetch action and should be present; the
	// default list mirrors the spirit of Pythia's offset menu.
	Actions []int8
	// Feature1Entries / Feature2Entries size the two Q-value tables
	// (rows; rounded up to powers of two). Feature 1 is the PC ⊕
	// delta-history program signature, feature 2 the page offset ⊕
	// last delta.
	Feature1Entries int
	Feature2Entries int
	// DeltaHistory is the number of recent line deltas folded into
	// feature 1 (default 4).
	DeltaHistory int
	// EQSize is the evaluation-queue depth (default 64).
	EQSize int
	// QBits is the fixed-point Q-value width including sign; updates
	// saturate at ±(2^(QBits-1)-1) like narrow hardware adders.
	QBits int
	// AlphaShift encodes the learning rate α = 2^-AlphaShift
	// (default 3, α = 1/8); GammaShift the discount γ = 1 -
	// 2^-GammaShift (default 2, γ = 0.75); EpsilonShift the
	// exploration probability ε = 2^-EpsilonShift (default 6,
	// ε = 1/64). All three are plain shifts so the arithmetic is
	// exact, integer and bit-reproducible.
	AlphaShift   uint
	GammaShift   uint
	EpsilonShift uint
	// TimelyAge is the age (in trigger accesses) past which a demand
	// hit on a queued prefetch counts as accurate-and-timely rather
	// than accurate-but-late (default 8).
	TimelyAge uint64
	// Reward levels (Pythia Table 4 spirit): a demand hit on a queued
	// prefetch older/younger than TimelyAge, a prefetch evicted
	// unused, a no-prefetch decision vindicated (no demand miss on
	// the page while queued) or punished (a miss slipped through).
	RewardAccurateTimely int32
	RewardAccurateLate   int32
	RewardInaccurate     int32
	RewardNoPrefGood     int32
	RewardNoPrefBad      int32
}

// DefaultPythiaConfig returns the default configuration: 16 actions,
// 4096 + 1024 Q-table rows, 4-deep delta history, a 64-entry
// evaluation queue and 16-bit fixed-point Q-values.
func DefaultPythiaConfig() PythiaConfig {
	return PythiaConfig{
		Actions:              []int8{0, 1, 2, 3, 4, 5, 6, 8, 10, 12, 16, 32, -1, -2, -3, -6},
		Feature1Entries:      4096,
		Feature2Entries:      1024,
		DeltaHistory:         4,
		EQSize:               64,
		QBits:                16,
		AlphaShift:           3,
		GammaShift:           2,
		EpsilonShift:         6,
		TimelyAge:            8,
		RewardAccurateTimely: 20,
		RewardAccurateLate:   12,
		RewardInaccurate:     -14,
		RewardNoPrefGood:     12,
		RewardNoPrefBad:      -4,
	}
}

func (c PythiaConfig) withDefaults() PythiaConfig {
	d := DefaultPythiaConfig()
	if len(c.Actions) == 0 {
		c.Actions = d.Actions
	}
	if c.Feature1Entries == 0 {
		c.Feature1Entries = d.Feature1Entries
	}
	if c.Feature2Entries == 0 {
		c.Feature2Entries = d.Feature2Entries
	}
	c.Feature1Entries = nextPow2(c.Feature1Entries)
	c.Feature2Entries = nextPow2(c.Feature2Entries)
	if c.DeltaHistory == 0 {
		c.DeltaHistory = d.DeltaHistory
	}
	if c.EQSize == 0 {
		c.EQSize = d.EQSize
	}
	if c.QBits == 0 {
		c.QBits = d.QBits
	}
	if c.AlphaShift == 0 {
		c.AlphaShift = d.AlphaShift
	}
	if c.GammaShift == 0 {
		c.GammaShift = d.GammaShift
	}
	if c.EpsilonShift == 0 {
		c.EpsilonShift = d.EpsilonShift
	}
	if c.EpsilonShift > 31 {
		c.EpsilonShift = 31
	}
	if c.TimelyAge == 0 {
		c.TimelyAge = d.TimelyAge
	}
	if c.RewardAccurateTimely == 0 {
		c.RewardAccurateTimely = d.RewardAccurateTimely
	}
	if c.RewardAccurateLate == 0 {
		c.RewardAccurateLate = d.RewardAccurateLate
	}
	if c.RewardInaccurate == 0 {
		c.RewardInaccurate = d.RewardInaccurate
	}
	if c.RewardNoPrefGood == 0 {
		c.RewardNoPrefGood = d.RewardNoPrefGood
	}
	if c.RewardNoPrefBad == 0 {
		c.RewardNoPrefBad = d.RewardNoPrefBad
	}
	return c
}

// nextPow2 rounds n up to the next power of two (n ≥ 1).
func nextPow2(n int) int {
	p := 1
	for p < n {
		p <<= 1
	}
	return p
}

// pageLineShift converts a line address to its 4KB-page number
// (PageSize/LineSize = 64 lines per page).
const pageLineShift = 6

// pythiaSeed is the deterministic xorshift32 seed (the Pythia paper's
// venue, MICRO 2021); shared bit-for-bit with check.RefPythia.
const pythiaSeed = 0x20211018

// PythiaStats counts prefetcher-internal events; the reference model
// mirrors it field for field.
type PythiaStats struct {
	Triggers       uint64 // accesses that selected an action (misses + prefetch hits)
	Issued         uint64 // prefetch candidates handed to the issue callback
	Explores       uint64 // ε-greedy exploration decisions
	AccurateTimely uint64 // queued prefetches rewarded as accurate and timely
	AccurateLate   uint64 // queued prefetches rewarded as accurate but late
	Inaccurate     uint64 // queued prefetches evicted unused
	NoPrefGood     uint64 // no-prefetch decisions evicted without a page miss
	NoPrefBad      uint64 // no-prefetch decisions that let a page miss through
	QUpdates       uint64 // SARSA updates applied on evaluation-queue eviction
}

// pythiaEQEntry is one evaluation-queue slot: the decision taken for
// one trigger access, awaiting its reward. Whether it still awaits one
// lives in the slot's pendKey/openKey, not here.
type pythiaEQEntry struct {
	h1, h2 uint32 // Q-table rows the decision was drawn from
	action int32  // action index into cfg.Actions
	reward int32  // set when a demand access claims the prefetch
	tick   uint64 // insertion tick, for the timeliness split
	issued bool   // a prefetch actually left for this entry
}

// noKey marks an evaluation-queue slot that a reward scan cannot
// change. No line or page equals it: a line is a byte address shifted
// right by mem.LineShift, so its top bits are zero.
const noKey = ^uint64(0)

// Pythia is the online-RL prefetcher. All state is preallocated in
// Reset; OnAccess never allocates.
type Pythia struct {
	prefetch.NoBlocks
	cfg        PythiaConfig
	numActions int
	f1Mask     uint32
	f2Mask     uint32
	qMax       int32

	q1, q2 []int32 // row-major [rows × numActions] fixed-point Q-values

	eq     []pythiaEQEntry // FIFO ring, oldest at eqHead
	eqHead int
	eqLen  int

	// The EQ's associative match as two flat key arrays beside the
	// ring, one key per slot: pendKey[j] is the line of an issued
	// entry not yet rewarded, openKey[j] the page of a no-prefetch
	// entry not yet marked by a page miss, and noKey every other slot
	// (empty ones included). An entry is rewarded exactly when it is
	// issued and its pendKey is noKey, and saw a miss exactly when it
	// is not issued and its openKey is noKey.
	pendKey []uint64
	openKey []uint64

	// The reward-scan filter: pendLine counts the live pendKeys and
	// openPage the live openKeys, by bucket of the key. A zero bucket
	// proves no slot the scan could change exists, so the scan is
	// skipped.
	pendLine  []int32
	openPage  []int32
	filtShift uint    // bucket = mem.Hash(key) >> filtShift
	recount   []int32 // checkQueue's scratch: pendLine then openPage

	deltaHist []int32 // ring of the DeltaHistory most recent deltas
	histPos   int     // index of the oldest element
	lastLine  mem.LineAddr
	haveLast  bool

	rng  uint32
	tick uint64

	Stats PythiaStats
}

var _ prefetch.Prefetcher = (*Pythia)(nil)

// NewPythia builds a Pythia-style prefetcher; zero-value fields of cfg
// fall back to defaults.
func NewPythia(cfg PythiaConfig) *Pythia {
	cfg = cfg.withDefaults()
	p := &Pythia{cfg: cfg}
	p.Reset()
	return p
}

// Name implements prefetch.Prefetcher.
func (p *Pythia) Name() string { return "pythia" }

// Config returns the active configuration.
func (p *Pythia) Config() PythiaConfig { return p.cfg }

// Reset implements prefetch.Prefetcher, preallocating every structure
// the hot path touches.
func (p *Pythia) Reset() {
	c := p.cfg
	p.numActions = len(c.Actions)
	p.f1Mask = uint32(c.Feature1Entries - 1)
	p.f2Mask = uint32(c.Feature2Entries - 1)
	p.qMax = 1<<(uint(c.QBits)-1) - 1
	p.q1 = make([]int32, c.Feature1Entries*p.numActions)
	p.q2 = make([]int32, c.Feature2Entries*p.numActions)
	p.eq = make([]pythiaEQEntry, c.EQSize)
	keys := make([]uint64, 2*c.EQSize)
	for i := range keys {
		keys[i] = noKey
	}
	p.pendKey = keys[:c.EQSize:c.EQSize]
	p.openKey = keys[c.EQSize:]
	p.eqHead = 0
	p.eqLen = 0
	buckets := nextPow2(4 * c.EQSize)
	p.pendLine = make([]int32, buckets)
	p.openPage = make([]int32, buckets)
	p.filtShift = 64 - mem.Log2(uint64(buckets))
	p.deltaHist = make([]int32, c.DeltaHistory)
	p.histPos = 0
	p.lastLine = 0
	p.haveLast = false
	p.rng = pythiaSeed
	p.tick = 0
	p.Stats = PythiaStats{}
}

//cbws:hotpath
func (p *Pythia) xorshift() uint32 {
	x := p.rng
	x ^= x << 13
	x ^= x >> 17
	x ^= x << 5
	p.rng = x
	return x
}

// clampDelta narrows a line stride to the ±127 range the delta history
// stores (hardware keeps small signed deltas; saturation is harmless
// because the value only feeds the feature hash).
//
//cbws:hotpath
func clampDelta(d int64) int32 {
	if d > 127 {
		return 127
	}
	if d < -127 {
		return -127
	}
	return int32(d)
}

// feature1 hashes the trigger PC and the delta history (oldest to
// newest) into a Q-table row. The formula is part of the reference
// contract: check.RefPythia re-implements it verbatim.
//
//cbws:hotpath
func (p *Pythia) feature1(pc uint64) uint32 {
	h := (uint32(pc) ^ uint32(pc>>32)) * 0x9E3779B1
	for _, d := range p.deltaHist[p.histPos:] {
		h = (h<<7 | h>>25) ^ (uint32(d) * 0x85EBCA6B)
	}
	for _, d := range p.deltaHist[:p.histPos] {
		h = (h<<7 | h>>25) ^ (uint32(d) * 0x85EBCA6B)
	}
	return h & p.f1Mask
}

// feature2 hashes the line's page offset and the most recent delta
// into a row of the second Q-table.
//
//cbws:hotpath
func (p *Pythia) feature2(line mem.LineAddr, lastDelta int32) uint32 {
	off := uint32(line) & (1<<pageLineShift - 1)
	g := (off << 7) ^ (uint32(lastDelta) * 0xC2B2AE35)
	g ^= g >> 15
	return g & p.f2Mask
}

// qsum is the two-table Q-value of (state, action).
//
//cbws:hotpath
func (p *Pythia) qsum(h1, h2 uint32, action int32) int32 {
	return p.q1[int(h1)*p.numActions+int(action)] + p.q2[int(h2)*p.numActions+int(action)]
}

// argmax returns the action index with the highest Q-value; ties break
// to the lowest index, making the greedy policy fully deterministic.
//
//cbws:hotpath
func (p *Pythia) argmax(h1, h2 uint32) int32 {
	best := int32(0)
	bestQ := p.qsum(h1, h2, 0)
	for a := int32(1); a < int32(p.numActions); a++ {
		if q := p.qsum(h1, h2, a); q > bestQ {
			best, bestQ = a, q
		}
	}
	return best
}

// bucket is key's reward-scan filter bucket.
//
//cbws:hotpath
func (p *Pythia) bucket(key uint64) uint32 { return uint32(mem.Hash(key) >> p.filtShift) }

//cbws:hotpath
func (p *Pythia) clampQ(q int32) int32 {
	if q > p.qMax {
		return p.qMax
	}
	if q < -p.qMax {
		return -p.qMax
	}
	return q
}

// evictOldest retires the oldest evaluation-queue entry: finalizes its
// reward (unused prefetches are inaccurate; unchallenged no-prefetch
// decisions were good calls) and applies the SARSA update
// Q(s,a) += α·(R + γ·Q(s',a') − Q(s,a)), bootstrapping from the next
// queued decision. Both component tables absorb the scaled TD error.
//
//cbws:hotpath
func (p *Pythia) evictOldest() {
	j := p.eqHead
	e := &p.eq[j]
	if p.eqHead++; p.eqHead == len(p.eq) {
		p.eqHead = 0
	}
	p.eqLen--

	r := e.reward
	switch pend, open := p.pendKey[j], p.openKey[j]; {
	case e.issued && pend != noKey:
		r = p.cfg.RewardInaccurate
		p.Stats.Inaccurate++
		p.pendLine[p.bucket(pend)]--
		p.pendKey[j] = noKey
	case e.issued: // rewarded by a demand hit
	case open != noKey:
		r = p.cfg.RewardNoPrefGood
		p.Stats.NoPrefGood++
		p.openPage[p.bucket(open)]--
		p.openKey[j] = noKey
	default:
		r = p.cfg.RewardNoPrefBad
		p.Stats.NoPrefBad++
	}
	target := r
	if p.eqLen > 0 {
		n := &p.eq[p.eqHead]
		qn := p.qsum(n.h1, n.h2, n.action)
		target += qn - qn>>p.cfg.GammaShift // γ = 1 - 2^-GammaShift
	}
	cur := p.qsum(e.h1, e.h2, e.action)
	adj := (target - cur) >> p.cfg.AlphaShift
	i1 := int(e.h1)*p.numActions + int(e.action)
	i2 := int(e.h2)*p.numActions + int(e.action)
	p.q1[i1] = p.clampQ(p.q1[i1] + adj)
	p.q2[i2] = p.clampQ(p.q2[i2] + adj)
	p.Stats.QUpdates++
}

// claim rewards the oldest queued, issued and unrewarded prefetch of
// line, if any: the first pendKey match, oldest first over the ring's
// two segments. hl is line's filter bucket, whose count it keeps.
//
//cbws:hotpath
func (p *Pythia) claim(line mem.LineAddr, hl uint32) {
	j := matchKey(p.pendKey[p.eqHead:], uint64(line))
	if j >= 0 {
		j += p.eqHead
	} else if j = matchKey(p.pendKey[:p.eqHead], uint64(line)); j < 0 {
		return
	}
	p.pendKey[j] = noKey
	p.pendLine[hl]--
	e := &p.eq[j]
	if p.tick-e.tick >= p.cfg.TimelyAge {
		e.reward = p.cfg.RewardAccurateTimely
		p.Stats.AccurateTimely++
	} else {
		e.reward = p.cfg.RewardAccurateLate
		p.Stats.AccurateLate++
	}
}

// matchKey returns the index of the first element of keys equal to
// key, or -1.
//
//cbws:hotpath
func matchKey(keys []uint64, key uint64) int {
	for i, k := range keys {
		if k == key {
			return i
		}
	}
	return -1
}

// markPage records a demand miss on page against every queued
// no-prefetch entry of page not yet marked. hp is page's filter
// bucket, whose count it keeps. Slot order does not matter: every
// match is marked.
//
//cbws:hotpath
func (p *Pythia) markPage(page uint64, hp uint32) {
	for j, k := range p.openKey {
		if k == page {
			p.openKey[j] = noKey
			p.openPage[hp]--
		}
	}
}

// OnAccess implements prefetch.Prefetcher. Every demand access settles
// rewards against the evaluation queue; misses and prefetch hits are
// the triggers that advance the delta history, consult the Q-tables
// and take a new action.
//
//cbws:hotpath
func (p *Pythia) OnAccess(a prefetch.Access, issue prefetch.IssueFunc) {
	p.tick++
	line := a.Line
	page := uint64(line) >> pageLineShift

	// 1. Reward propagation: the first queued unrewarded prefetch of
	// this exact line is accurate (timely if it has had TimelyAge
	// trigger accesses to complete); a demand miss marks every queued
	// no-prefetch decision on the same page as a lost opportunity.
	// The filter skips the scan when it could change nothing.
	if hl := p.bucket(uint64(line)); p.pendLine[hl] != 0 {
		p.claim(line, hl)
	}
	miss := a.Miss()
	if hp := p.bucket(page); miss && p.openPage[hp] != 0 {
		p.markPage(page, hp)
	}

	// 2. Only misses and first uses of prefetched lines trigger a new
	// decision — the same training gate the stride and GHB baselines
	// use, which keeps a working prefetch stream advancing.
	if !miss && !a.PfHit {
		return
	}
	p.Stats.Triggers++

	// 3. Advance the global delta history, then read the features
	// (the current delta is part of the state).
	var d int32
	if p.haveLast {
		d = clampDelta(line.Delta(p.lastLine))
	}
	p.deltaHist[p.histPos] = d
	if p.histPos++; p.histPos == len(p.deltaHist) {
		p.histPos = 0
	}
	p.lastLine = line
	p.haveLast = true

	h1 := p.feature1(a.PC)
	h2 := p.feature2(line, d)

	// 4. ε-greedy action selection with deterministic exploration.
	sel := p.argmax(h1, h2)
	x := p.xorshift()
	if x&(1<<p.cfg.EpsilonShift-1) == 0 {
		sel = int32((x >> p.cfg.EpsilonShift) % uint32(p.numActions))
		p.Stats.Explores++
	}

	// 5. Execute: prefetches stay within the trigger's physical page,
	// as in Pythia; a cross-page candidate degenerates to no-prefetch.
	off := int64(p.cfg.Actions[sel])
	cand := line.Add(off)
	issued := off != 0 && uint64(cand)>>pageLineShift == page
	if issued {
		issue(cand)
		p.Stats.Issued++
	}

	// 6. Queue the decision for evaluation, retiring the oldest entry
	// (and its Q-update) when the queue is full.
	if p.eqLen == len(p.eq) {
		p.evictOldest()
	}
	tail := p.eqHead + p.eqLen
	if tail >= len(p.eq) {
		tail -= len(p.eq)
	}
	p.eq[tail] = pythiaEQEntry{h1: h1, h2: h2, action: sel, tick: p.tick, issued: issued}
	p.eqLen++
	if issued {
		p.pendKey[tail] = uint64(cand)
		p.pendLine[p.bucket(uint64(cand))]++
	} else {
		p.openKey[tail] = page
		p.openPage[p.bucket(page)]++
	}

	if check.Enabled {
		p.checkQueue()
	}
}

// checkQueue verifies the evaluation-queue structural invariants under
// check.Enabled: occupancy within bounds, every entry's action and
// rows within their tables, the key arrays against the entries (an
// issued entry has no openKey, a no-prefetch entry no pendKey, a slot
// outside the queue neither), and the reward-scan filter equal to a
// recount of the keys. The full Q-table range scan is amortized to
// every 4096th access — it is O(tables), and every slot write is
// clamped anyway.
func (p *Pythia) checkQueue() {
	check.Assertf(p.eqLen >= 0 && p.eqLen <= len(p.eq),
		"pythia: EQ occupancy %d out of range [0,%d]", p.eqLen, len(p.eq))
	nb := len(p.pendLine)
	if len(p.recount) != 2*nb {
		p.recount = make([]int32, 2*nb)
	}
	clear(p.recount)
	pend, open := p.recount[:nb], p.recount[nb:]
	for j := range p.eq {
		e := &p.eq[j]
		live := (j-p.eqHead+len(p.eq))%len(p.eq) < p.eqLen
		pk, ok := p.pendKey[j], p.openKey[j]
		switch {
		case !live:
			check.Assertf(pk == noKey && ok == noKey,
				"pythia: empty EQ slot %d holds keys (%#x,%#x)", j, pk, ok)
			continue
		case e.issued:
			check.Assertf(ok == noKey, "pythia: issued EQ slot %d holds page key %#x", j, ok)
		default:
			check.Assertf(pk == noKey, "pythia: no-prefetch EQ slot %d holds line key %#x", j, pk)
		}
		check.Assertf(int(e.action) < p.numActions, "pythia: EQ action %d out of range", e.action)
		check.Assertf(int(e.h1) < p.cfg.Feature1Entries && int(e.h2) < p.cfg.Feature2Entries,
			"pythia: EQ rows (%d,%d) out of range", e.h1, e.h2)
		if pk != noKey {
			pend[p.bucket(pk)]++
		}
		if ok != noKey {
			open[p.bucket(ok)]++
		}
	}
	for b := range p.pendLine {
		check.Assertf(p.pendLine[b] == pend[b] && p.openPage[b] == open[b],
			"pythia: filter bucket %d counts (%d,%d), keys hold (%d,%d)",
			b, p.pendLine[b], p.openPage[b], pend[b], open[b])
	}
	if p.tick&0xFFF != 0 {
		return
	}
	for _, q := range p.q1 {
		check.Assertf(q <= p.qMax && q >= -p.qMax, "pythia: q1 value %d overflows %d bits", q, p.cfg.QBits)
	}
	for _, q := range p.q2 {
		check.Assertf(q <= p.qMax && q >= -p.qMax, "pythia: q2 value %d overflows %d bits", q, p.cfg.QBits)
	}
}

// StorageBits estimates the hardware budget: the two Q-tables at QBits
// per action, the evaluation queue (line tag, two row indexes, action
// index, age/flag byte) and the delta history.
func (p *Pythia) StorageBits() uint64 {
	c := p.cfg
	q := uint64(c.Feature1Entries+c.Feature2Entries) * uint64(p.numActions) * uint64(c.QBits)
	rowBits := mem.Log2(uint64(c.Feature1Entries)) + mem.Log2(uint64(c.Feature2Entries))
	actBits := mem.Log2(uint64(nextPow2(p.numActions)))
	eq := uint64(c.EQSize) * uint64(48+rowBits+actBits+8)
	hist := uint64(c.DeltaHistory) * 8
	return q + eq + hist
}
