// Package guardedby is the fixture for the cbws/guardedby analyzer.
// The box type annotates three fields; every function below accesses
// one of them without (fully) holding the named mutex, or calls a
// sync/atomic package function.
package guardedby

import (
	"sync"
	"sync/atomic"
)

type box struct {
	mu    sync.Mutex
	rw    sync.RWMutex
	n     int            //cbws:guardedby mu
	m     map[string]int //cbws:guardedby mu
	items []int          //cbws:guardedby rw
}

func (b *box) badRead() int {
	return b.n // want `field n read without holding mu`
}

func (b *box) badWrite() {
	b.n = 1 // want `field n written without holding mu`
}

func (b *box) badRLockWrite() {
	b.rw.RLock()
	b.items[0] = 1 // want `field items written while holding only rw.RLock`
	b.rw.RUnlock()
}

func (b *box) badBranch(c bool) {
	if c {
		b.mu.Lock()
	}
	b.n++ // want `field n written without holding mu`
	if c {
		b.mu.Unlock()
	}
}

func (b *box) badAfterUnlock() int {
	b.mu.Lock()
	b.n = 1
	b.mu.Unlock()
	return b.n // want `field n read without holding mu`
}

func (b *box) badClosure() {
	b.mu.Lock()
	defer b.mu.Unlock()
	f := func() {
		b.n = 2 // want `field n written without holding mu`
	}
	f()
}

func (b *box) badDelete() {
	delete(b.m, "k") // want `field m written without holding mu`
}

func (b *box) badAddr() *map[string]int {
	return &b.m // want `field m written without holding mu`
}

func (b *box) bumpLocked() { b.n++ }

func (b *box) badCall() {
	b.bumpLocked() // want `call to bumpLocked without holding mu`
}

type badAnno struct {
	//cbws:guardedby nosuch
	x int // want `no sibling sync.Mutex or sync.RWMutex field`
}

func useBadAnno(a *badAnno) int { return a.x }

func badAtomicFunc(n *int64) { atomic.AddInt64(n, 1) } // want `sync/atomic.AddInt64: use a typed wrapper`
