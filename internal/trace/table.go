package trace

import "cbws/internal/mem"

// keyTable is a growable open-addressed hash map from uint64 keys to
// uint64 values: the analyzer's region-bitmap table, PC table and
// stride histogram.
//
// It is not mem.Index. That table sizes the prefetchers' and the
// cache's hardware structures: fixed capacity, half full, one int32
// slot per key, never allocating after construction. A trace's
// footprint has no such bound, so this table grows: it doubles before
// it passes 3/4 full.
//
// Buckets are linear-probed from the Fibonacci hash of the key (the
// mem.Index placement), and a bucket holds its key and value side by
// side, so a probe that finds its key has the value in the same cache
// line. A bucket holding emptyKey is free, so there is no parallel used
// array; the key emptyKey itself lives outside the buckets, in hasEmpty
// and emptyVal. Nothing is ever deleted.
type keyTable struct {
	slots []keySlot // power-of-two length
	n     int       // keys held in slots
	shift uint      // 64 - log2(len(slots))

	hasEmpty bool   // emptyKey is in the table
	emptyVal uint64 // its value
}

// keySlot is one bucket of a keyTable.
type keySlot struct{ key, val uint64 }

// emptyKey marks a free bucket.
const emptyKey = 0

// minTableSize is a new table's bucket count.
const minTableSize = 1 << 8

func newKeyMap() keyTable { return newKeyTable(minTableSize) }

// newKeyTable returns an empty table of size buckets (a power of two).
func newKeyTable(size int) keyTable {
	return keyTable{slots: make([]keySlot, size), shift: 64 - mem.Log2(uint64(size))}
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
	mask := uint64(len(t.slots) - 1)
	for b = mem.Hash(key) >> t.shift; ; b = (b + 1) & mask {
		switch t.slots[b].key {
		case key:
			return b, true
		case emptyKey:
			return b, false
		}
	}
}

// val returns a pointer to key's value, inserting the key with value 0
// if it is absent, and whether it was present. The pointer is valid
// until the next insertion.
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
	return &t.slots[b].val, found
}

// insertAt stores key in the free bucket b that ended its probe and
// returns key's bucket, which moves if the table grew.
func (t *keyTable) insertAt(b, key uint64) uint64 {
	if 4*(t.n+1) > 3*len(t.slots) {
		t.grow()
		b, _ = t.find(key)
	}
	t.slots[b].key = key
	t.n++
	return b
}

// grow doubles the bucket array and re-places every key.
func (t *keyTable) grow() {
	old := t.slots
	*t = keyTable{
		slots:    make([]keySlot, 2*len(old)),
		n:        t.n,
		shift:    t.shift - 1,
		hasEmpty: t.hasEmpty,
		emptyVal: t.emptyVal,
	}
	for _, s := range old {
		if s.key == emptyKey {
			continue
		}
		b, _ := t.find(s.key)
		t.slots[b] = s
	}
}

// each calls fn for every key and value, in bucket order.
func (t *keyTable) each(fn func(key, val uint64)) {
	if t.hasEmpty {
		fn(emptyKey, t.emptyVal)
	}
	for _, s := range t.slots {
		if s.key != emptyKey {
			fn(s.key, s.val)
		}
	}
}
