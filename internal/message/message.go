// Package message implements the TKO_Message buffer manager (ADAPTIVE
// §4.2.1).
//
// The paper identifies memory-to-memory copying as a dominant source of
// transport system overhead and requires a message abstraction that supports
// (1) moving messages between protocol layers without copying, (2) cheap
// prepend/strip of headers, and (3) lazy copying plus fragmentation and
// reassembly. Message provides exactly that: a view (offset, length) onto a
// reference-counted backing buffer with reserved headroom, so Push/Pop adjust
// the view, Split shares the buffer, and Retain is O(1).
package message

import (
	"fmt"
	"sync/atomic"
)

// DefaultHeadroom is the space reserved in front of payload data for headers
// pushed by lower layers. 64 bytes comfortably holds the ADAPTIVE wire header
// plus a provider header.
const DefaultHeadroom = 64

// DefaultTailroom is the spare capacity reserved behind the payload, where
// wire.EncodeTo writes the checksum trailer of an in-place encode.
const DefaultTailroom = 8

// buffer is the shared, reference-counted backing store.
//
// class records which size class the buffer came from (-1 = plain heap
// allocation, never recycled). A buffer's data slice never changes, so a
// recycled buffer always fits its class.
type buffer struct {
	data     []byte
	refs     atomic.Int32
	class    int8
	poisoned bool     // poison-filled at the last recycle (verified on pool Get)
	view     *Message // while free: the view that made the final release
}

// Message is a view onto a shared buffer. The zero value is not usable; use
// New, NewFromBytes, or Alloc.
//
// Message structs are themselves pooled: the view that makes the final
// release travels with its buffer back to the buffer's pool, and every other
// released view returns to a pool of views, so steady-state traffic allocates
// neither buffers nor views.
type Message struct {
	buf *buffer
	off int // start of the visible region within buf.data
	n   int // visible length
}

// wrap binds a Message struct to a buffer view: the one a recycled buffer
// brought along, else a pooled (or fresh) one.
func (c *Cache) wrap(b *buffer, off, n int) *Message {
	m := b.view
	if m != nil {
		b.view = nil
	} else if m, _ = viewPool.Get(c.viewList()); m == nil {
		m = new(Message)
	}
	m.buf, m.off, m.n = b, off, n
	return m
}

// Alloc returns a message with n bytes of zeroed payload, room for headroom
// bytes of headers in front of it, and DefaultTailroom bytes of trailer space
// behind it.
func Alloc(n, headroom int) *Message {
	if n < 0 || headroom < 0 {
		panic("message: negative size")
	}
	b := &buffer{data: make([]byte, headroom+n+DefaultTailroom), class: -1}
	b.refs.Store(1)
	return (*Cache)(nil).wrap(b, headroom, n)
}

// NewFromBytes copies p into a fresh message with default headroom.
func NewFromBytes(p []byte) *Message {
	m := Alloc(len(p), DefaultHeadroom)
	copy(m.Bytes(), p)
	return m
}

// drop removes one reference and reports whether it was the last; releasing
// more times than the buffer was retained panics before the count moves.
func (b *buffer) drop() bool {
	for {
		cur := b.refs.Load()
		if cur <= 0 {
			panic("message: release after final release")
		}
		if b.refs.CompareAndSwap(cur, cur-1) {
			return cur == 1
		}
	}
}

// incRef adds a reference, refusing to resurrect a buffer whose count has
// already reached zero (a use-after-final-release).
func (b *buffer) incRef() {
	for {
		cur := b.refs.Load()
		if cur <= 0 {
			panic("message: retain after final release")
		}
		if b.refs.CompareAndSwap(cur, cur+1) {
			return
		}
	}
}

// Retain increments the reference count and returns a new view of the same
// buffer for the additional owner ("lazy copy": O(1), shares storage). It
// returns a distinct struct because every view's Release recycles its struct:
// two owners sharing one struct would double-recycle it.
func (m *Message) Retain() *Message {
	if m.buf == nil {
		panic("message: retain after final release")
	}
	m.buf.incRef()
	return (*Cache)(nil).wrap(m.buf, m.off, m.n)
}

// BufPin is an opaque handle holding one buffer reference without a view
// struct (see Message.Pin).
type BufPin struct{ b *buffer }

// Pin takes an extra reference on the backing buffer without allocating a
// view. Encoders use it to keep the bytes alive across an emit callback that
// may re-enter the protocol and release the caller's view: the pin survives
// even though the view struct may be recycled underneath.
func (m *Message) Pin() BufPin {
	m.buf.incRef()
	return BufPin{m.buf}
}

// Unpin drops the pinned reference (recycling the buffer when it was the
// last one).
func (p BufPin) Unpin() {
	if p.b.drop() && p.b.class >= 0 {
		(*Cache)(nil).recycle(p.b)
	}
}

// Window returns the backing bytes from head bytes before the view start to
// tail bytes past its end, without moving the view. The caller must ensure
// Headroom() >= head and Tailroom() >= tail, and must hold a Pin while the
// slice is in use.
func (m *Message) Window(head, tail int) []byte {
	m.check()
	if head > m.off || m.off+m.n+tail > len(m.buf.data) {
		panic(fmt.Sprintf("message: Window(%d,%d) with headroom %d tailroom %d", head, tail, m.Headroom(), m.Tailroom()))
	}
	return m.buf.data[m.off-head : m.off+m.n+tail]
}

// Release drops one reference. After the final release the message must not
// be used. The final release returns a pooled buffer to its size-class pool;
// releasing more times than the buffer was retained panics on the exact
// offending call (the 0 -> -1 transition is detected before the decrement is
// published, so a double release can never be observed as a transient valid
// state by another owner).
//
// Every released view recycles its struct, not just the one performing the
// final buffer release (Split and Retain hand out views that share a buffer):
// the final one rides back with its pooled buffer, one object to recycle
// instead of two, and any other goes to the pool of views. The struct is
// detached (buf nilled) before recycling, which turns any use-after-release
// into a deterministic panic via check.
//
// Release recycles through the shared tier, so it is safe from any goroutine:
// an application may keep a delivered message and release it from its own.
// Code on a provider's event loop releases through the loop's Cache instead.
func (m *Message) Release() { (*Cache)(nil).Release(m) }

// Release is Message.Release through the cache's free lists.
func (c *Cache) Release(m *Message) {
	b := m.buf
	if b == nil {
		panic("message: release after final release")
	}
	final := b.drop()
	m.buf = nil
	m.off, m.n = 0, 0
	if final && b.class >= 0 {
		b.view = m
		c.recycle(b)
		return
	}
	viewPool.Put(c.viewList(), m)
}

// Refs returns the current reference count (for tests and leak accounting).
func (m *Message) Refs() int32 { return m.buf.refs.Load() }

// Len returns the visible payload length.
func (m *Message) Len() int { return m.n }

// Bytes returns the visible region. The slice aliases the shared buffer:
// callers must not write to it if Refs() > 1.
func (m *Message) Bytes() []byte {
	m.check()
	return m.buf.data[m.off : m.off+m.n]
}

// Headroom returns the bytes available for Push.
func (m *Message) Headroom() int { return m.off }

// Tailroom returns the spare bytes behind the view (where an in-place encode
// writes its trailer).
func (m *Message) Tailroom() int { return len(m.buf.data) - (m.off + m.n) }

// check panics when the message's buffer has already been fully released
// (use-after-final-release detection on the read path). The struct-pooling
// nil-out on final release makes the cheap nil check catch most misuse even
// outside poison mode.
func (m *Message) check() {
	if m.buf == nil {
		panic("message: use after final release")
	}
	if poisonMode.Load() && m.buf.refs.Load() <= 0 {
		panic("message: use after final release")
	}
}

// Push prepends n bytes and returns the slice covering them, for the caller
// to fill with header contents. It panics if headroom is exhausted — header
// budgets are static in this system, so exhaustion is a programming error.
func (m *Message) Push(n int) []byte {
	m.check()
	if n < 0 || n > m.off {
		panic(fmt.Sprintf("message: Push(%d) with headroom %d", n, m.off))
	}
	m.off -= n
	m.n += n
	return m.buf.data[m.off : m.off+n]
}

// Pop strips n bytes from the front and returns them (still aliasing the
// buffer). It panics if n exceeds Len.
func (m *Message) Pop(n int) []byte {
	m.check()
	if n < 0 || n > m.n {
		panic(fmt.Sprintf("message: Pop(%d) with len %d", n, m.n))
	}
	p := m.buf.data[m.off : m.off+n]
	m.off += n
	m.n -= n
	return p
}

// Split divides the message at offset at: the receiver keeps [0,at) and the
// returned message views [at,len). Both share the buffer (fragmentation
// without copying). The returned fragment has no headroom of its own beyond
// the shared prefix, so while both live neither is encoded in place: a sender
// segments by copying into one buffer per segment instead (session.Send).
func (m *Message) Split(at int) *Message {
	if at < 0 || at > m.n {
		panic(fmt.Sprintf("message: Split(%d) with len %d", at, m.n))
	}
	m.buf.incRef()
	rest := (*Cache)(nil).wrap(m.buf, m.off+at, m.n-at)
	m.n = at
	return rest
}

// String summarizes the view for debugging.
func (m *Message) String() string {
	return fmt.Sprintf("msg{len=%d off=%d refs=%d}", m.n, m.off, m.Refs())
}
