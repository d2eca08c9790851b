package trace

import (
	"math/rand"
	"testing"
)

// TestKeyTableVsMap drives a keyTable and a Go map with the same random
// inserts, lookups and value updates, across several growths, and
// requires them to agree at every step and in a full walk at the end.
// The keys mix small values, values from all 64 bits, and the edge keys
// 0 (the reserved empty key) and ^0.
func TestKeyTableVsMap(t *testing.T) {
	rng := rand.New(rand.NewSource(11))
	m := newKeyMap()
	ref := map[uint64]uint64{}
	key := func() uint64 {
		switch rng.Intn(8) {
		case 0:
			return 0
		case 1:
			return ^uint64(0)
		case 2, 3:
			return uint64(rng.Intn(1 << 12)) // small: revisited often
		case 4:
			return uint64(rng.Intn(1<<12)) << 52 // only high bits differ
		default:
			return rng.Uint64()
		}
	}
	const ops = 60_000
	for i := 0; i < ops; i++ {
		k := key()
		_, inRef := ref[k]
		v, found := m.val(k)
		if found != inRef {
			t.Fatalf("op %d: val(%#x) found = %v, want %v", i, k, found, inRef)
		}
		if *v != ref[k] {
			t.Fatalf("op %d: value of %#x = %d, want %d", i, k, *v, ref[k])
		}
		*v += uint64(i)
		ref[k] += uint64(i)
		if m.count() != len(ref) {
			t.Fatalf("op %d: count %d, want %d", i, m.count(), len(ref))
		}
	}
	if len(m.slots) < 8*minTableSize {
		t.Fatalf("table has %d buckets after %d keys: fewer growths than the test needs", len(m.slots), len(ref))
	}
	if 4*m.n > 3*len(m.slots) {
		t.Errorf("load factor above 3/4: %d/%d", m.n, len(m.slots))
	}
	seen := map[uint64]bool{}
	m.each(func(k, v uint64) {
		if seen[k] {
			t.Errorf("each visits %#x twice", k)
		}
		seen[k] = true
		if want, ok := ref[k]; !ok || v != want {
			t.Errorf("each: %#x -> %d, reference %d (present %v)", k, v, want, ok)
		}
	})
	if len(seen) != len(ref) {
		t.Errorf("each visits %d keys, want %d", len(seen), len(ref))
	}
}
