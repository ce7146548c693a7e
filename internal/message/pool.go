package message

import (
	"fmt"
	"math/bits"
	"os"
	"sync"
	"sync/atomic"
	"unsafe"
)

// Size-classed buffer pooling (ADAPTIVE §4.2.1).
//
// The paper names per-packet buffer management as a dominant transport
// overhead; steady-state traffic must not allocate. Buffers come in
// power-of-two size classes and the final Release returns a buffer to its
// class. Every pooled kind recycles through two tiers (see Pool): the free
// lists of the event loop the call runs on (a Cache), and one sync.Pool
// shared by every goroutine behind them. A debug poison mode
// (ADAPTIVE_MSG_POISON=1, or SetPoison in tests) fills released buffers with
// a poison byte and verifies the fill is intact when the buffer is reused,
// catching writes through stale references; double releases and reads after
// the final release panic at the offending call.

// Size classes: powers of two from 256 B to 64 KiB. minClassBits is the
// exponent of the smallest class.
const (
	minClassBits = 8
	numClasses   = 9
	maxClassSize = 1 << (minClassBits + numClasses - 1) // 65536
)

func classSize(ci int) int { return 1 << (minClassBits + ci) }

// classFor returns the smallest size class holding n bytes, or -1 when n
// exceeds the largest class.
func classFor(n int) int {
	if n <= classSize(0) {
		return 0
	}
	if n > maxClassSize {
		return -1
	}
	return bits.Len(uint(n-1)) - minClassBits
}

// exactClass returns the class whose size is exactly n, or -1.
func exactClass(n int) int {
	if n&(n-1) == 0 {
		if ci := bits.TrailingZeros(uint(n)) - minClassBits; ci >= 0 && ci < numClasses {
			return ci
		}
	}
	return -1
}

// Pool is one pooled object kind with its two tiers. The shared tier is a
// sync.Pool, safe from any goroutine. In front of it, each event loop keeps a
// FreeList of the kind: a plain slice that only the goroutine running the
// loop touches, so a get or put that the list can serve takes no lock and no
// atomic, and only its overflow and underflow reach the shared tier. A nil
// *FreeList stands for the shared tier itself — what a caller that may run
// off any loop uses — so each pool operation has one implementation
// whichever tier serves it. Loop lists are bounded and the garbage collector
// never empties them; the sync.Pool holds whatever they shed, until a GC
// cycle or two passes it by. Which tier serves an object never affects
// results: callers fully re-initialize what they get back.
type Pool[T any] struct {
	// Depth bounds each loop's list of this kind (set once, before use).
	Depth  int
	shared sync.Pool
}

// FreeList is one event loop's list of one pooled kind (see Pool). The zero
// value is ready to use. A popped slot is not cleared: the list's array may
// keep up to Depth objects reachable that are in use or already dropped.
type FreeList[T any] struct{ free []T }

// Get pops from the loop's list l, falling back to the shared tier; it
// reports false when both are empty and the caller must allocate.
func (p *Pool[T]) Get(l *FreeList[T]) (x T, ok bool) {
	if l != nil {
		if n := len(l.free) - 1; n >= 0 {
			x = l.free[n]
			l.free = l.free[:n]
			return x, true
		}
	}
	return p.getShared()
}

// getShared and putSlow are kept out of Get and Put so that the list paths,
// which serve nearly every call on a loop, inline at their call sites.
func (p *Pool[T]) getShared() (x T, ok bool) {
	countShared()
	x, ok = p.shared.Get().(T)
	return x, ok
}

// Put pushes x onto the loop's list l, or onto the shared tier when l is nil
// or full.
func (p *Pool[T]) Put(l *FreeList[T], x T) {
	if l != nil && len(l.free) < cap(l.free) {
		l.free = append(l.free, x)
		return
	}
	p.putSlow(l, x)
}

func (p *Pool[T]) putSlow(l *FreeList[T], x T) {
	if l != nil && l.free == nil {
		l.free = append(make([]T, 0, p.Depth), x)
		return
	}
	countShared()
	p.shared.Put(x)
}

// Shared-tier accounting under poison mode (the default path pays one relaxed
// load): every get or put that reaches a sync.Pool counts one.
var sharedOps atomic.Int64

func countShared() {
	if poisonMode.Load() {
		sharedOps.Add(1)
	}
}

// SharedOps returns how many pooled gets and puts reached the shared tier
// while poison mode was on. A loop that recycles on its own lists keeps this
// flat; what remains is the traffic of callers off the loop (an application
// releasing what was delivered to it) and the loop's overflow.
func SharedOps() int64 { return sharedOps.Load() }

// Loop-list depths: a loop keeps up to loopBytes of each class in its lists
// (4 to 128 objects), and up to 128 views.
const loopBytes = 256 << 10

var (
	bufPools  [numClasses]Pool[*buffer]
	slabPools [numClasses]Pool[*byte] // a slab travels as its array's first byte
	viewPool  = Pool[*Message]{Depth: 128}
)

func init() {
	for ci := 0; ci < numClasses; ci++ {
		depth := min(max(loopBytes/classSize(ci), 4), 128)
		bufPools[ci].Depth, slabPools[ci].Depth = depth, depth
	}
}

// Cache is one event loop's free lists of buffers, Message views and raw
// slabs (the loop tier of each Pool). Providers that run an event loop own
// one (reached through wire.Cache), and only code running on that loop may
// use it. Every method accepts a nil *Cache, which stands for the shared tier:
// what code that may run off the loop uses, and what the package-level
// functions are.
type Cache struct {
	bufs  [numClasses]FreeList[*buffer]
	slabs [numClasses]FreeList[*byte]
	views FreeList[*Message]
}

func (c *Cache) bufList(ci int) *FreeList[*buffer] {
	if c == nil {
		return nil
	}
	return &c.bufs[ci]
}

func (c *Cache) slabList(ci int) *FreeList[*byte] {
	if c == nil {
		return nil
	}
	return &c.slabs[ci]
}

func (c *Cache) viewList() *FreeList[*Message] {
	if c == nil {
		return nil
	}
	return &c.views
}

// poisonByte fills released pooled buffers in poison mode.
const poisonByte = 0xDB

// poisonMode is atomic so tests may toggle it while other goroutines hold
// messages without a data race; the relaxed load on the hot path compiles to
// a plain load on mainstream architectures.
var poisonMode atomic.Bool

func init() { poisonMode.Store(os.Getenv("ADAPTIVE_MSG_POISON") == "1") }

// SetPoison toggles poison mode and returns the previous setting (tests only).
// The switch itself is race-free, but buffers released while the mode was off
// carry no poison fill, so enable it before the traffic under test starts.
func SetPoison(on bool) bool {
	return poisonMode.Swap(on)
}

// outstanding counts pooled buffers handed out and not yet recycled, while
// poison mode is on (the debug mode pays for the bookkeeping; the default
// path does not).
var outstanding atomic.Int64

// Outstanding returns the pool balance under poison mode: pooled buffers
// allocated since it was switched on minus those whose final Release has run.
// A leak check turns poison mode on before its traffic and compares this
// figure across two quiescent points: a buffer dropped to the garbage
// collector instead of released stays counted.
func Outstanding() int64 { return outstanding.Load() }

// getBuffer returns a buffer with refs=1 whose data slice has length >= total.
// Pooled when total fits a size class, plain heap otherwise. Contents are NOT
// zeroed on the pooled path.
func (c *Cache) getBuffer(total int) *buffer {
	ci := classFor(total)
	if ci < 0 {
		b := &buffer{data: make([]byte, total), class: -1}
		b.refs.Store(1)
		return b
	}
	if poisonMode.Load() {
		outstanding.Add(1)
	}
	b, ok := bufPools[ci].Get(c.bufList(ci))
	if !ok {
		b = &buffer{data: make([]byte, classSize(ci)), class: int8(ci)}
	} else if b.poisoned {
		checkPoison(b)
		b.poisoned = false
	}
	b.refs.Store(1)
	return b
}

// recycle is called by the final release of a pooled buffer: it goes back to
// its class — with the view that released it, if any, riding along (see
// Cache.Release).
func (c *Cache) recycle(b *buffer) {
	if poisonMode.Load() {
		outstanding.Add(-1)
		for i := range b.data {
			b.data[i] = poisonByte
		}
		b.poisoned = true
	}
	bufPools[b.class].Put(c.bufList(int(b.class)), b)
}

// checkPoison verifies a buffer coming out of a pool still carries the poison
// fill written at release; any other byte means something wrote through a
// stale reference after the final release.
func checkPoison(b *buffer) {
	for i, c := range b.data {
		if c != poisonByte {
			panic(fmt.Sprintf("message: pooled buffer modified after release (byte %d = %#02x, want %#02x)", i, c, poisonByte))
		}
	}
}

// AllocPooled returns a message with n bytes of payload, headroom bytes of
// header space, and at least DefaultTailroom bytes of trailer space, drawn
// from the size-class pools when possible. Unlike Alloc, the payload is NOT
// zeroed: callers must overwrite all n bytes. Release returns the buffer to
// its pool on the final reference.
func (c *Cache) AllocPooled(n, headroom int) *Message {
	if n < 0 || headroom < 0 {
		panic("message: negative size")
	}
	b := c.getBuffer(headroom + n + DefaultTailroom)
	return c.wrap(b, headroom, n)
}

// AllocPooled is Cache.AllocPooled on the shared tier.
func AllocPooled(n, headroom int) *Message { return (*Cache)(nil).AllocPooled(n, headroom) }

// PooledFromBytes copies p into a pooled message with default headroom.
func (c *Cache) PooledFromBytes(p []byte) *Message {
	m := c.AllocPooled(len(p), DefaultHeadroom)
	copy(m.buf.data[m.off:], p)
	return m
}

// PooledFromBytes is Cache.PooledFromBytes on the shared tier.
func PooledFromBytes(p []byte) *Message { return (*Cache)(nil).PooledFromBytes(p) }

// Raw slab pooling for provider packet buffers: netsim copies every injected
// packet (senders keep ownership of their buffers), udpnet every received
// frame, and the wire encoder builds header-only PDUs in one. GetSlab and
// PutSlab recycle those copies through the same size classes. A free slab is
// held as a pointer to the first byte of its array (its class gives the
// length back), which a sync.Pool stores without boxing.

// GetSlab returns a byte slice of length n with undefined contents. Slices
// larger than the biggest size class fall back to make.
func (c *Cache) GetSlab(n int) []byte {
	ci := classFor(n)
	if ci < 0 {
		return make([]byte, n)
	}
	if p, ok := slabPools[ci].Get(c.slabList(ci)); ok {
		return unsafe.Slice(p, classSize(ci))[:n]
	}
	return make([]byte, n, classSize(ci))
}

// GetSlab is Cache.GetSlab on the shared tier.
func GetSlab(n int) []byte { return (*Cache)(nil).GetSlab(n) }

// PutSlab recycles a slice previously returned by GetSlab. Slices whose
// capacity is not an exact class size (including make fallbacks) are dropped.
// The caller must not touch s afterwards; in poison mode the slab is
// poison-filled here, so a delivery buffer kept past its upcall reads poison.
func (c *Cache) PutSlab(s []byte) {
	if ci := exactClass(cap(s)); ci >= 0 {
		if poisonMode.Load() {
			s = s[:cap(s)]
			for i := range s {
				s[i] = poisonByte
			}
		}
		slabPools[ci].Put(c.slabList(ci), unsafe.SliceData(s[:cap(s)]))
	}
}

// PutSlab is Cache.PutSlab on the shared tier.
func PutSlab(s []byte) { (*Cache)(nil).PutSlab(s) }
