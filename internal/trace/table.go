package trace

import "cbws/internal/mem"

// keyTable is a growable open-addressed hash table of uint64 keys, the
// analyzer's set of lines, set of regions, PC table and stride
// histogram. A set (newKeySet) stores keys only; a map (newKeyMap)
// also keeps a uint64 value per key in a parallel array.
//
// It is not mem.Index. That table sizes the prefetchers' and the
// cache's hardware structures: fixed capacity, half full, one int32
// slot per key, never allocating after construction. A trace's
// footprint has no such bound, so this table grows: it doubles before
// it passes 3/4 full. At 8 bytes a bucket, a set of line or region
// keys takes less heap than a Go map of the same keys.
//
// Buckets are linear-probed from the Fibonacci hash of the key (the
// mem.Index placement). A bucket holding emptyKey is free, so there is
// no parallel used array; the key emptyKey itself lives outside the
// buckets, in hasEmpty and emptyVal. Nothing is ever deleted.
type keyTable struct {
	keys  []uint64 // power-of-two length
	vals  []uint64 // parallel to keys; nil for a set
	n     int      // keys held in buckets
	shift uint     // 64 - log2(len(keys))

	hasEmpty bool   // emptyKey is in the table
	emptyVal uint64 // its value
}

// emptyKey marks a free bucket.
const emptyKey = 0

// minTableSize is a new table's bucket count.
const minTableSize = 1 << 8

func newKeySet() keyTable { return newKeyTable(minTableSize, false) }

func newKeyMap() keyTable { return newKeyTable(minTableSize, true) }

// newKeyTable returns an empty table of size buckets (a power of two).
func newKeyTable(size int, withVals bool) keyTable {
	t := keyTable{keys: make([]uint64, size), shift: 64 - mem.Log2(uint64(size))}
	if withVals {
		t.vals = make([]uint64, size)
	}
	return t
}

// count returns the number of keys in the table.
func (t *keyTable) count() int {
	if t.hasEmpty {
		return t.n + 1
	}
	return t.n
}

// find returns the bucket holding key, or the free bucket that ends its
// probe sequence (found = false). key is not emptyKey.
func (t *keyTable) find(key uint64) (b uint64, found bool) {
	mask := uint64(len(t.keys) - 1)
	for b = mem.Hash(key) >> t.shift; ; b = (b + 1) & mask {
		switch t.keys[b] {
		case key:
			return b, true
		case emptyKey:
			return b, false
		}
	}
}

// add inserts key into a set and reports whether it was absent.
func (t *keyTable) add(key uint64) bool {
	if key == emptyKey {
		added := !t.hasEmpty
		t.hasEmpty = true
		return added
	}
	b, found := t.find(key)
	if found {
		return false
	}
	t.insertAt(b, key)
	return true
}

// val returns a pointer to key's value in a map, inserting the key with
// value 0 if it is absent, and whether it was present. The pointer is
// valid until the next insertion.
func (t *keyTable) val(key uint64) (v *uint64, found bool) {
	if key == emptyKey {
		found = t.hasEmpty
		t.hasEmpty = true
		return &t.emptyVal, found
	}
	b, found := t.find(key)
	if !found {
		b = t.insertAt(b, key)
	}
	return &t.vals[b], found
}

// insertAt stores key in the free bucket b that ended its probe and
// returns key's bucket, which moves if the table grew.
func (t *keyTable) insertAt(b, key uint64) uint64 {
	if 4*(t.n+1) > 3*len(t.keys) {
		t.grow()
		b, _ = t.find(key)
	}
	t.keys[b] = key
	t.n++
	return b
}

// grow doubles the bucket array and re-places every key.
func (t *keyTable) grow() {
	old := *t
	*t = newKeyTable(2*len(old.keys), old.vals != nil)
	t.n, t.hasEmpty, t.emptyVal = old.n, old.hasEmpty, old.emptyVal
	for i, k := range old.keys {
		if k == emptyKey {
			continue
		}
		b, _ := t.find(k)
		t.keys[b] = k
		if t.vals != nil {
			t.vals[b] = old.vals[i]
		}
	}
}

// each calls fn for every key and value (0 in a set), in bucket order.
func (t *keyTable) each(fn func(key, val uint64)) {
	if t.hasEmpty {
		fn(emptyKey, t.emptyVal)
	}
	for i, k := range t.keys {
		if k == emptyKey {
			continue
		}
		var v uint64
		if t.vals != nil {
			v = t.vals[i]
		}
		fn(k, v)
	}
}
