// Package hotpathalloc is the fixture for the cbws/hotpathalloc
// analyzer: every flagged line carries a want comment; clean.go holds
// the sanctioned patterns; suppressed.go demonstrates waivers.
package hotpathalloc

import "fmt"

type ring struct {
	buf   []int
	count int
}

//cbws:hotpath
func (r *ring) bad(v int) {
	tmp := make([]int, 4) // want `calls make`
	_ = tmp
	s := []int{v} // want `slice literal`
	_ = s
	m := map[int]bool{} // want `map literal`
	_ = m
	p := new(ring) // want `calls new`
	_ = p
	msg := fmt.Sprintf("v=%d", v) // want `calls fmt.Sprintf`
	_ = msg
	r.unannotated() // want `not annotated`
}

func (r *ring) unannotated() {}

//cbws:hotpath
func (r *ring) closureBad() {
	f := func() { r.count++ } // want `closure captures`
	f()
}

//cbws:hotpath
func concat(a, b string) string {
	return a + b // want `concatenates strings`
}

type boxer interface{ M() }

type val struct{ x int }

func (val) M() {}

//cbws:hotpath
func box(v val) boxer {
	return boxer(v) // want `converts non-pointer value to interface`
}

//cbws:hotpath
func escape() *val {
	return &val{x: 1} // want `address of a composite literal`
}

//cbws:hotpath
func appendForeign(dst []int, v int) []int {
	return append(dst, v) // want `not owned by the receiver`
}

//cbws:hotpath
func spawn() {
	go func() {}() // want `spawns a goroutine`
}

var (
	sink  []byte
	runes []rune
	name  string
)

//cbws:hotpath
func convert(s string, b []byte, m map[string]int) {
	sink = []byte(s)      // want `converts string to \[\]byte`
	runes = []rune(s)     // want `converts string to \[\]rune`
	name = string(b)      // want `converts \[\]byte to string`
	m[string(b)] = 1      // want `converts \[\]byte to string`
	m[string(b)]++        // want `converts \[\]byte to string`
	for range []rune(s) { // want `converts string to \[\]rune`
	}
}
