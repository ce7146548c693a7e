package message

import (
	"sync"
	"sync/atomic"
	"testing"
)

func TestClassFor(t *testing.T) {
	cases := []struct{ n, want int }{
		{0, 0}, {1, 0}, {256, 0}, {257, 1}, {512, 1}, {513, 2},
		{1024, 2}, {4096, 4}, {65536, 8}, {65537, -1},
	}
	for _, c := range cases {
		if got := classFor(c.n); got != c.want {
			t.Errorf("classFor(%d) = %d, want %d", c.n, got, c.want)
		}
	}
	if exactClass(512) != 1 || exactClass(513) != -1 || exactClass(128) != -1 {
		t.Error("exactClass misclassified")
	}
}

func TestAllocPooledShape(t *testing.T) {
	m := AllocPooled(100, 32)
	if m.Len() != 100 || m.Headroom() != 32 {
		t.Fatalf("len=%d headroom=%d", m.Len(), m.Headroom())
	}
	if m.Tailroom() < DefaultTailroom {
		t.Fatalf("tailroom = %d, want >= %d", m.Tailroom(), DefaultTailroom)
	}
	m.Release()
}

func TestAllocPooledOversizeFallsBack(t *testing.T) {
	m := AllocPooled(maxClassSize+1, 0)
	if m.Len() != maxClassSize+1 {
		t.Fatalf("len = %d", m.Len())
	}
	if m.buf.class != -1 {
		t.Fatalf("oversize buffer got class %d", m.buf.class)
	}
	m.Release()
}

func TestPooledFromBytesCopies(t *testing.T) {
	src := []byte("hello pool")
	m := PooledFromBytes(src)
	src[0] = 'X'
	if string(m.Bytes()) != "hello pool" {
		t.Fatalf("pooled copy aliases source: %q", m.Bytes())
	}
	m.Release()
}

// TestReleaseRecyclesToPool: a loop's free lists are its own, so a release
// through a Cache and the next allocation of the class get the same buffer
// and view back, deterministically.
func TestReleaseRecyclesToPool(t *testing.T) {
	var c Cache
	m := c.AllocPooled(100, 16)
	b := m.buf
	c.Release(m)
	m2 := c.AllocPooled(100, 16)
	defer c.Release(m2)
	if m2.buf != b || m2 != m {
		t.Fatal("the cache did not hand back the buffer and view just released")
	}
	if m2.buf.refs.Load() != 1 {
		t.Fatalf("recycled buffer refs = %d", m2.buf.refs.Load())
	}
}

// TestCacheSteadyStateStaysOffSharedTier: once warm, a loop's allocate /
// release / slab cycle never touches the shared tier, while the nil Cache is
// the shared tier: at least one get and one put for the buffer (its view
// rides along when the pool still has it) and for the slab.
func TestCacheSteadyStateStaysOffSharedTier(t *testing.T) {
	defer SetPoison(SetPoison(true))
	cycle := func(c *Cache) {
		m := c.PooledFromBytes([]byte("payload"))
		s := c.GetSlab(1400)
		c.PutSlab(s)
		c.Release(m)
	}
	var c Cache
	cycle(&c)
	start := SharedOps()
	for i := 0; i < 100; i++ {
		cycle(&c)
	}
	if n := SharedOps() - start; n != 0 {
		t.Fatalf("100 warm loop cycles took %d shared-tier operations, want 0", n)
	}
	start = SharedOps()
	cycle(nil)
	if n := SharedOps() - start; n < 4 {
		t.Fatalf("a shared-tier cycle took %d shared-tier operations, want at least 4", n)
	}
}

func TestDoubleReleasePanicsAtSecondCall(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("double release did not panic")
		}
	}()
	m := AllocPooled(10, 8)
	m.Release() // final release: legal
	m.Release() // exactly this call must panic (0 -> -1 transition)
}

func TestUseAfterFinalReleasePanicsUnderPoison(t *testing.T) {
	prev := SetPoison(true)
	defer SetPoison(prev)
	m := AllocPooled(10, 8)
	m.Release()
	defer func() {
		if recover() == nil {
			t.Fatal("Bytes after final release did not panic under poison mode")
		}
	}()
	_ = m.Bytes()
}

func TestRetainAfterFinalReleasePanics(t *testing.T) {
	m := AllocPooled(10, 8)
	m.Release()
	defer func() {
		if recover() == nil {
			t.Fatal("Retain after final release did not panic")
		}
	}()
	m.Retain()
}

func TestPoisonCatchesWriteAfterRelease(t *testing.T) {
	prev := SetPoison(true)
	defer SetPoison(prev)
	var c Cache
	b := c.getBuffer(300)
	stale := b.data // reference held past the release
	c.recycle(b)    // poison-fills b.data
	stale[17] = 0x42
	defer func() {
		stale[17] = poisonByte // repair: b is back in the pool and may be reused
		if recover() == nil {
			t.Fatal("checkPoison missed a write through a stale reference")
		}
	}()
	checkPoison(b)
}

func TestPoisonFillOnRecycle(t *testing.T) {
	prev := SetPoison(true)
	defer SetPoison(prev)
	var c Cache
	b := c.getBuffer(300)
	copy(b.data, "some payload bytes")
	c.recycle(b)
	for i, c := range b.data {
		if c != poisonByte {
			t.Fatalf("byte %d = %#02x after recycle, want poison", i, c)
		}
	}
}

func TestGetSlabPutSlab(t *testing.T) {
	s := GetSlab(1000)
	if len(s) != 1000 || cap(s) != 1024 {
		t.Fatalf("slab len=%d cap=%d", len(s), cap(s))
	}
	PutSlab(s)
	s2 := GetSlab(700)
	if len(s2) != 700 {
		t.Fatalf("reused slab len=%d", len(s2))
	}
	PutSlab(s2)
	// Oversize falls back to make and PutSlab drops it silently.
	big := GetSlab(maxClassSize + 5)
	if len(big) != maxClassSize+5 {
		t.Fatalf("oversize slab len=%d", len(big))
	}
	PutSlab(big)
}

// TestConcurrentPutGet hammers one Pool from many goroutines (run under
// -race), half of them through loop lists of their own and half on the
// shared tier: an object is never handed out while another goroutine holds
// it, and a loop list never outgrows its depth.
func TestConcurrentPutGet(t *testing.T) {
	const workers, each = 8, 20000
	p := Pool[*int]{Depth: 4}
	owned := make([]atomic.Int32, workers*4) // 1 while some goroutine holds object i
	objs := make([]int, len(owned))
	for i := range objs {
		objs[i] = i
	}
	lists := make([]FreeList[*int], workers)
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			var l *FreeList[*int]
			if w%2 == 0 {
				l = &lists[w]
			}
			mine := []*int{&objs[4*w], &objs[4*w+1], &objs[4*w+2], &objs[4*w+3]}
			for _, o := range mine {
				owned[*o].Store(1)
			}
			for i := 0; i < each; i++ {
				if len(mine) > 0 && i%3 != 0 {
					o := mine[len(mine)-1]
					mine = mine[:len(mine)-1]
					owned[*o].Store(0)
					p.Put(l, o)
				} else if o, ok := p.Get(l); ok {
					if !owned[*o].CompareAndSwap(0, 1) {
						t.Errorf("object %d handed out while still held", *o)
						return
					}
					mine = append(mine, o)
				}
			}
		}(w)
	}
	wg.Wait()
	for i := range lists {
		if n := len(lists[i].free); n > p.Depth {
			t.Fatalf("a loop list holds %d objects, depth %d", n, p.Depth)
		}
	}
}
