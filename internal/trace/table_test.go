package trace

import (
	"math/rand"
	"testing"
)

// TestKeyTableVsMap drives a set and a map keyTable and a Go map with
// the same random inserts and lookups, across several growths, and
// requires them to agree at every step and in a full walk at the end.
// The keys mix small values, values from all 64 bits, and the edge keys
// 0 (the reserved empty key) and ^0.
func TestKeyTableVsMap(t *testing.T) {
	rng := rand.New(rand.NewSource(11))
	set, m := newKeySet(), newKeyMap()
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
		if added := set.add(k); added == inRef {
			t.Fatalf("op %d: set.add(%#x) = %v, key present before: %v", i, k, added, inRef)
		}
		v, found := m.val(k)
		if found != inRef {
			t.Fatalf("op %d: map.val(%#x) found = %v, want %v", i, k, found, inRef)
		}
		if *v != ref[k] {
			t.Fatalf("op %d: map value of %#x = %d, want %d", i, k, *v, ref[k])
		}
		*v += uint64(i)
		ref[k] += uint64(i)
		if set.count() != len(ref) || m.count() != len(ref) {
			t.Fatalf("op %d: counts set %d, map %d, want %d", i, set.count(), m.count(), len(ref))
		}
	}
	if len(m.keys) < 8*minTableSize {
		t.Fatalf("table has %d buckets after %d keys: fewer growths than the test needs", len(m.keys), len(ref))
	}
	if 4*m.n > 3*len(m.keys) || 4*set.n > 3*len(set.keys) {
		t.Errorf("load factor above 3/4: map %d/%d, set %d/%d", m.n, len(m.keys), set.n, len(set.keys))
	}
	if set.vals != nil {
		t.Errorf("set carries a value array")
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
	n := 0
	set.each(func(k, v uint64) {
		n++
		if _, ok := ref[k]; !ok || v != 0 {
			t.Errorf("set each: %#x -> %d, present in reference %v", k, v, ok)
		}
	})
	if n != len(ref) {
		t.Errorf("set each visits %d keys, want %d", n, len(ref))
	}
}
