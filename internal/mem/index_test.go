package mem

import (
	"math/rand"
	"testing"
)

// TestIndexVsMap drives random Put/Get/Delete sequences through an
// Index and a Go map at full capacity, over clustered keys (which
// collide in long probe runs) and wide random keys, including key 0
// and ^0.
func TestIndexVsMap(t *testing.T) {
	for _, capacity := range []int{1, 3, 8, 100} {
		for seed := int64(0); seed < 4; seed++ {
			rng := rand.New(rand.NewSource(seed))
			x := NewIndex(capacity)
			ref := make(map[uint64]int)
			pool := make([]uint64, 3*capacity+2)
			for i := range pool {
				switch {
				case i == 0:
					pool[i] = 0
				case i == 1:
					pool[i] = ^uint64(0)
				case seed%2 == 0:
					pool[i] = uint64(i) << 6 // clustered, like PCs
				default:
					pool[i] = rng.Uint64()
				}
			}
			for op := 0; op < 20000; op++ {
				k := pool[rng.Intn(len(pool))]
				switch rng.Intn(3) {
				case 0:
					if _, ok := ref[k]; ok || len(ref) < capacity {
						v := rng.Intn(1 << 20)
						x.Put(k, v)
						ref[k] = v
					}
				case 1:
					_, want := ref[k]
					if got := x.Delete(k); got != want {
						t.Fatalf("cap %d seed %d op %d: Delete(%#x) = %v, want %v", capacity, seed, op, k, got, want)
					}
					delete(ref, k)
				}
				for _, k := range pool {
					v, ok := x.Get(k)
					rv, rok := ref[k]
					if ok != rok || v != rv {
						t.Fatalf("cap %d seed %d op %d: Get(%#x) = %d,%v, want %d,%v", capacity, seed, op, k, v, ok, rv, rok)
					}
				}
			}
			x.Clear()
			for _, k := range pool {
				if _, ok := x.Get(k); ok {
					t.Fatalf("key %#x survived Clear", k)
				}
			}
		}
	}
}

func TestIndexAllocs(t *testing.T) {
	x := NewIndex(64)
	allocs := testing.AllocsPerRun(100, func() {
		for k := uint64(0); k < 64; k++ {
			x.Put(k*0x40, int(k))
		}
		for k := uint64(0); k < 64; k++ {
			x.Get(k * 0x40)
			x.Delete(k * 0x40)
		}
	})
	if allocs != 0 {
		t.Errorf("Index ops allocate %.1f times per run", allocs)
	}
}

func TestIndexOverCapacityPanics(t *testing.T) {
	x := NewIndex(2)
	x.Put(1, 0)
	x.Put(2, 1)
	x.Put(2, 5) // replacing a key is not growth
	defer func() {
		if recover() == nil {
			t.Error("Put of a third key into a 2-key index did not panic")
		}
	}()
	x.Put(3, 2)
}
