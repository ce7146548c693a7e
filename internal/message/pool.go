package message

import (
	"fmt"
	"math/bits"
	"os"
	"sync"
	"sync/atomic"

	"adaptive/internal/backstop"
)

// Size-classed buffer pooling (ADAPTIVE §4.2.1).
//
// The paper names per-packet buffer management as a dominant transport
// overhead; steady-state traffic must not allocate. Buffers are drawn from
// sync.Pools in power-of-two size classes; the final Release returns a
// buffer to its class pool. A debug poison mode (ADAPTIVE_MSG_POISON=1, or
// SetPoison in tests) fills released buffers with a poison byte and verifies
// the fill is intact when the buffer is reused, catching writes through
// stale references; double releases and reads after the final release panic
// at the offending call.

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

var bufPools [numClasses]sync.Pool

// Backstop free stacks under the sync.Pools (see package backstop): a GC
// cycle empties every sync.Pool, so the bounded GC-immune stacks absorb the
// steady-state recycle traffic and only the overflow rides sync.Pool.

// backstopBudget bounds the idle memory one class backstop may pin.
const backstopBudget = 2 << 20

var (
	bufBackstops  [numClasses]backstop.Stack[*buffer]
	slabBackstops [numClasses]backstop.Stack[[]byte]
	msgBackstop   backstop.Stack[*Message]
)

func init() {
	for ci := 0; ci < numClasses; ci++ {
		per := backstopBudget / classSize(ci) / backstop.Shards
		if per < 8 {
			per = 8
		}
		bufBackstops[ci].PerShard = per
		slabBackstops[ci].PerShard = per
	}
	// Message structs are ~48 B; 2048 per shard pins well under 1 MiB while
	// covering the whole in-flight view population of a large soak.
	msgBackstop.PerShard = 2048
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
func getBuffer(total int) *buffer {
	ci := classFor(total)
	if ci < 0 {
		b := &buffer{data: make([]byte, total), class: -1}
		b.refs.Store(1)
		return b
	}
	if poisonMode.Load() {
		outstanding.Add(1)
	}
	b, ok := bufBackstops[ci].Get()
	if !ok {
		v := bufPools[ci].Get()
		if v == nil {
			b = &buffer{data: make([]byte, classSize(ci)), class: int8(ci)}
			b.refs.Store(1)
			return b
		}
		b = v.(*buffer)
	}
	if b.poisoned {
		checkPoison(b)
		b.poisoned = false
	}
	b.refs.Store(1)
	return b
}

// recycle is called by the final Release. Pool-eligible buffers go back to
// their class pool; plain buffers are left to the garbage collector.
func recycle(b *buffer) {
	if b.class < 0 {
		return
	}
	if poisonMode.Load() {
		outstanding.Add(-1)
		for i := range b.data {
			b.data[i] = poisonByte
		}
		b.poisoned = true
	}
	if !bufBackstops[int(b.class)].Put(b) {
		bufPools[int(b.class)].Put(b)
	}
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
func AllocPooled(n, headroom int) *Message {
	if n < 0 || headroom < 0 {
		panic("message: negative size")
	}
	b := getBuffer(headroom + n + DefaultTailroom)
	return wrap(b, headroom, n)
}

// PooledFromBytes copies p into a pooled message with default headroom.
func PooledFromBytes(p []byte) *Message {
	m := AllocPooled(len(p), DefaultHeadroom)
	copy(m.buf.data[m.off:], p)
	return m
}

// Raw slab pooling for provider packet buffers. netsim copies every injected
// packet (senders keep ownership of their buffers); GetSlab/PutSlab recycle
// those copies through the same size classes without boxing a fresh
// interface value per Put.

type slabBox struct{ buf []byte }

var slabPools [numClasses]sync.Pool
var boxPool = sync.Pool{New: func() any { return new(slabBox) }}

// GetSlab returns a byte slice of length n with undefined contents. Slices
// larger than the biggest size class fall back to make.
func GetSlab(n int) []byte {
	ci := classFor(n)
	if ci < 0 {
		return make([]byte, n)
	}
	if s, ok := slabBackstops[ci].Get(); ok {
		return s[:n]
	}
	v := slabPools[ci].Get()
	if v == nil {
		return make([]byte, n, classSize(ci))
	}
	box := v.(*slabBox)
	s := box.buf[:n]
	box.buf = nil
	boxPool.Put(box)
	return s
}

// PutSlab recycles a slice previously returned by GetSlab. Slices whose
// capacity is not an exact class size (including make fallbacks) are dropped.
// The caller must not touch s afterwards.
func PutSlab(s []byte) {
	ci := exactClass(cap(s))
	if ci < 0 {
		return
	}
	if slabBackstops[ci].Put(s[:cap(s)]) {
		return
	}
	box := boxPool.Get().(*slabBox)
	box.buf = s[:cap(s)]
	slabPools[ci].Put(box)
}
