package message

import (
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

func TestReleaseRecyclesToPool(t *testing.T) {
	// Drain-then-reuse is best-effort (sync.Pool gives no guarantees), but a
	// same-goroutine Put/Get pair reliably hits the private slot.
	m := AllocPooled(100, 16)
	b := m.buf
	m.Release()
	m2 := AllocPooled(100, 16)
	defer m2.Release()
	if m2.buf != b {
		t.Skip("pool did not return the same buffer (GC interference)")
	}
	if m2.buf.refs.Load() != 1 {
		t.Fatalf("recycled buffer refs = %d", m2.buf.refs.Load())
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
	b := getBuffer(300)
	stale := b.data // reference held past the release
	recycle(b)      // poison-fills b.data
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
	b := getBuffer(300)
	copy(b.data, "some payload bytes")
	recycle(b)
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
