package check_test

import (
	"testing"

	"cbws/internal/check"
	"cbws/internal/prefetch"
)

// decodeBaselineEvents turns fuzz input into baseline events, three
// bytes a record in the learned fuzz format; a record with op bit 0x20
// set is an L1 eviction of its line instead of an access.
func decodeBaselineEvents(data []byte) []baselineEvent {
	feed := &byteFeed{data: data}
	events := make([]baselineEvent, 0, len(data)/3)
	for i := 0; i < len(data)/3; i++ {
		op, hi, lo := feed.next(), feed.next(), feed.next()
		a := decodeLearnedAccess(op, hi, lo)
		events = append(events, baselineEvent{a: a, evict: op&0x20 != 0})
	}
	return events
}

// addBaselineSeeds seeds a baseline fuzz target with short strided,
// periodic and region-revisiting streams plus prefixes of real kernel
// demand streams.
func addBaselineSeeds(f *testing.F) {
	f.Add([]byte{})
	f.Add([]byte{0x00, 0x01, 0x00, 0x00, 0x01, 0x02, 0x00, 0x01, 0x04, 0x00, 0x01, 0x06, 0x00, 0x01, 0x08})
	f.Add([]byte{0x01, 0x00, 0x10, 0x01, 0x00, 0x11, 0x01, 0x00, 0x13, 0x01, 0x00, 0x14, 0x01, 0x00, 0x16,
		0x01, 0x00, 0x17, 0x21, 0x00, 0x10, 0x01, 0x00, 0x50, 0x01, 0x00, 0x51})
	f.Add(kernelSeed("stencil-default", 512))
	f.Add(kernelSeed("429.mcf-ref", 512))
}

// FuzzStrideVsRef drives fuzzer-shaped access streams through a
// 4-entry production stride table and the map-based reference.
func FuzzStrideVsRef(f *testing.F) {
	addBaselineSeeds(f)
	f.Fuzz(func(t *testing.T, data []byte) {
		events := decodeBaselineEvents(data)
		driveBaselinePair(t,
			prefetch.NewStride(prefetch.StrideConfig{TableEntries: 4, Degree: 2}),
			check.NewRefStride(check.RefStrideConfig{TableEntries: 4, Degree: 2}), events)
	})
}

// FuzzGHBVsRef drives fuzzer-shaped access streams through a 5-entry
// production GHB and the reference, in both index modes.
func FuzzGHBVsRef(f *testing.F) {
	addBaselineSeeds(f)
	f.Fuzz(func(t *testing.T, data []byte) {
		events := decodeBaselineEvents(data)
		for _, mode := range []prefetch.GHBIndexMode{prefetch.PCDC, prefetch.GlobalDC} {
			driveBaselinePair(t,
				prefetch.NewGHB(prefetch.GHBConfig{Mode: mode, BufferEntries: 5, HistoryLength: 3, Degree: 3}),
				check.NewRefGHB(check.RefGHBConfig{PCDC: mode == prefetch.PCDC, BufferEntries: 5, HistoryLength: 3, Degree: 3}),
				events)
		}
	})
}

// FuzzSMSVsRef drives fuzzer-shaped access and eviction streams through
// a production SMS with 4-entry AGT and filter tables, an 8-entry PHT
// and 512-byte regions, and through the reference; issued lines also
// fire re-entrant evictions from inside the issue loop.
func FuzzSMSVsRef(f *testing.F) {
	addBaselineSeeds(f)
	f.Fuzz(func(t *testing.T, data []byte) {
		events := decodeBaselineEvents(data)
		driveBaselinePair(t,
			prefetch.NewSMS(prefetch.SMSConfig{AGTEntries: 4, FilterEntries: 4, PHTEntries: 8, RegionBytes: 512}),
			check.NewRefSMS(check.RefSMSConfig{AGTEntries: 4, FilterEntries: 4, PHTEntries: 8, RegionBytes: 512, OffsetBits: 5}),
			events)
	})
}
