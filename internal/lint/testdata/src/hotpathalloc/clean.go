package hotpathalloc

import "cbws/internal/check"

// Reset is cold-path setup: unannotated functions may allocate freely.
func (r *ring) Reset(n int) {
	r.buf = make([]int, 0, n)
	r.count = 0
}

//cbws:hotpath
func (r *ring) push(v int) {
	// Appending to receiver-owned, preallocated capacity is the
	// sanctioned zero-allocation idiom.
	r.buf = append(r.buf, v)
	r.count++
}

//cbws:hotpath
func (r *ring) recycle() {
	// Receiver-derived aliases stay receiver-owned through reslicing.
	scratch := r.buf[:0]
	scratch = append(scratch, r.count)
	r.buf = scratch
	r.transfer()
}

//cbws:hotpath
func (r *ring) transfer() {
	if check.Enabled {
		// Checked builds may allocate: everything under the
		// check.Enabled guard is exempt, including boxing variadics.
		check.Assertf(r.count >= 0, "negative count %d", r.count)
	}
	r.count++
}

type cell struct{ vals []int }

type grid struct{ cells [4]cell }

// store appends through a pointer into receiver-owned storage
// (c := &g.cells[i]): still the preallocated-capacity idiom.
//
//cbws:hotpath
func (g *grid) store(i, v int) {
	c := &g.cells[i]
	c.vals = append(c.vals[:0], v)
}

//cbws:hotpath
func sum(xs []int) int {
	// Plain arithmetic, indexing, and struct values allocate nothing.
	total := 0
	for _, x := range xs {
		total += x
	}
	v := val{x: total}
	return v.x
}

//cbws:hotpath
func lookup(m map[string]int, b []byte, s string) int {
	// The compiler converts in place for a map lookup key, a comparison
	// operand and a range over []byte(s): none of them allocates.
	n := m[string(b)]
	if string(b) == s {
		n++
	}
	for _, c := range []byte(s) {
		n += int(c)
	}
	return n
}
