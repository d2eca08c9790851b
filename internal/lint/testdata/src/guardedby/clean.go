package guardedby

import (
	"sync"
	"sync/atomic"
)

func newBox() *box {
	// Composite-literal construction happens before publication: no
	// lock needed.
	return &box{m: map[string]int{}, items: make([]int, 4)}
}

func (b *box) get(k string) (int, bool) {
	b.mu.Lock()
	defer b.mu.Unlock()
	v, ok := b.m[k]
	return v, ok
}

func (b *box) put(k string, v int) {
	b.mu.Lock()
	b.m[k] = v
	b.mu.Unlock()
}

func (b *box) lenItems() int {
	b.rw.RLock()
	defer b.rw.RUnlock()
	return len(b.items)
}

func (b *box) setItem(i, v int) {
	b.rw.Lock()
	b.items[i] = v
	b.rw.Unlock()
}

func (b *box) sum() int {
	b.mu.Lock()
	total := 0
	for _, v := range b.m {
		total += v
	}
	if total > 10 {
		b.mu.Unlock()
		return total
	}
	b.n = total
	b.mu.Unlock()
	return total
}

func (b *box) bump() {
	b.mu.Lock()
	b.bumpLocked()
	b.mu.Unlock()
}

func (b *box) snapshot() int {
	// Locking inside an immediately-invoked closure is tracked from
	// the closure's own empty entry state.
	return func() int {
		b.mu.Lock()
		defer b.mu.Unlock()
		return b.n
	}()
}

type owner struct {
	b *box
}

func (o *owner) touch() {
	o.b.mu.Lock()
	o.b.n = 5
	o.b.mu.Unlock()
}

func handoff(boxes map[string]*box) {
	var wg sync.WaitGroup
	for _, b := range boxes {
		wg.Add(1)
		go func(b *box) {
			defer wg.Done()
			b.mu.Lock()
			b.n++
			b.mu.Unlock()
		}(b)
	}
	wg.Wait()
}

// The typed atomic wrappers are the sanctioned form.
func bumpWrapper(n *atomic.Int64) int64 { return n.Add(1) }
