package mem

// Index is a fixed-capacity open-addressed map from a 64-bit key (a
// PC, a line address, a pattern signature) to a small table slot
// number. It is the lookup structure of the hardware tables the
// prefetchers and the cache hierarchy model: sized once for the
// table's entry count, it never grows, never allocates after
// construction, and iterates nothing, so no result can depend on Go's
// map iteration order.
//
// The probe sequence is linear over a power-of-two array at most half
// full, with Fibonacci hashing to spread keys that differ only in
// their high bits (PCs, region numbers). Delete uses backward-shift
// deletion, so there are no tombstones and lookups never degrade.
// Holding more than the constructed capacity of keys at once is a
// caller bug, and Put panics on it.
type Index struct {
	keys     []uint64
	vals     []int32 // slot+1; 0 marks an empty bucket
	mask     uint64
	shift    uint
	n, limit int // keys held, capacity
}

// NewIndex returns an empty index for up to capacity keys.
func NewIndex(capacity int) Index {
	size := uint64(2)
	for size < 2*uint64(capacity) {
		size <<= 1
	}
	return Index{
		keys:  make([]uint64, size),
		vals:  make([]int32, size),
		mask:  size - 1,
		shift: 64 - Log2(size),
		limit: capacity,
	}
}

// Hash is the Fibonacci hash an Index places keys by: its top bits
// spread keys that differ only in their high bits, so a table of 2^b
// buckets takes bucket Hash(key) >> (64-b).
//
//cbws:hotpath
func Hash(key uint64) uint64 { return key * 0x9E3779B97F4A7C15 }

// home is key's preferred bucket.
//
//cbws:hotpath
func (x *Index) home(key uint64) uint64 { return Hash(key) >> x.shift }

// find returns the bucket holding key, or the empty bucket that ends
// its probe sequence (found = false).
//
//cbws:hotpath
func (x *Index) find(key uint64) (b uint64, found bool) {
	b = x.home(key)
	for x.vals[b] != 0 {
		if x.keys[b] == key {
			return b, true
		}
		b = (b + 1) & x.mask
	}
	return b, false
}

// Get returns the slot stored for key.
//
//cbws:hotpath
func (x *Index) Get(key uint64) (slot int, ok bool) {
	b, found := x.find(key)
	if !found {
		return 0, false
	}
	return int(x.vals[b]) - 1, true
}

// Put maps key to slot, replacing any previous mapping.
//
//cbws:hotpath
func (x *Index) Put(key uint64, slot int) {
	b, found := x.find(key)
	if !found {
		if x.n == x.limit {
			panic("mem: Index over capacity")
		}
		x.n++
	}
	x.keys[b] = key
	x.vals[b] = int32(slot) + 1
}

// Delete removes key and reports whether it was present. Later
// entries of the probe run shift back into the hole so every
// remaining key stays reachable from its home bucket.
//
//cbws:hotpath
func (x *Index) Delete(key uint64) bool {
	hole, found := x.find(key)
	if !found {
		return false
	}
	for b := (hole + 1) & x.mask; x.vals[b] != 0; b = (b + 1) & x.mask {
		// The entry at b may fill the hole only if its home does not
		// lie cyclically within (hole, b]: moving it earlier than its
		// home would hide it from its own probe sequence.
		if (b-x.home(x.keys[b]))&x.mask >= (b-hole)&x.mask {
			x.keys[hole], x.vals[hole] = x.keys[b], x.vals[b]
			hole = b
		}
	}
	x.vals[hole] = 0
	x.n--
	return true
}

// Len returns the number of keys held.
//
//cbws:hotpath
func (x *Index) Len() int { return x.n }

// Clear removes every key.
func (x *Index) Clear() {
	clear(x.vals)
	x.n = 0
}
