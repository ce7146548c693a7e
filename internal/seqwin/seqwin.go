// Package seqwin holds per-sequence-number state in sliding windows instead of
// maps. A transport's sequence-indexed state — the retransmission and
// reassembly buffers, messages held for reordering, per-sequence NAK and
// retransmission throttles, the duplicate filter — occupies a narrow span of
// sequence space that only moves forward, so a slot array addressed by the low
// bits of the sequence number does with one mask what a map does with a hash,
// a probe and (on the way out) a delete, and it can be walked in order.
//
// All comparisons are serial (wrap-safe): sequence numbers are located by
// their unsigned distance from the window's low edge, so windows straddle 2^32
// freely.
package seqwin

import "iter"

// MaxSpan is the widest span a Ring or Bitmap will cover. The wire header's
// window field is 16 bits, so no conforming sender is ever further ahead of
// its peer than this; anything beyond is refused rather than letting one
// forged sequence number size an array.
const MaxSpan = 1 << 16

const minSlots = 8

// Ring maps sequence numbers to values, provided the occupied sequence numbers
// stay within MaxSpan of each other. The zero T means "absent" and the zero
// Ring is empty and ready to use. The slot array is allocated on the first Set
// and doubles when the occupied span outgrows it; the window follows its
// contents, so a ring whose entries are taken from the bottom as new ones
// arrive at the top never grows.
type Ring[T comparable] struct {
	// Every occupied sequence number lies in [lo, top] (meaningful while
	// n > 0) and top-lo < len(slots), so no two of them share a slot. Either
	// bound may be slack after a Take; Min and Max settle them.
	lo, top uint32
	n       int
	slots   []T // len is 0 or a power of two; slot of seq is seq&(len-1)
}

// Len returns the number of occupied slots.
func (r *Ring[T]) Len() int { return r.n }

func (r *Ring[T]) slot(seq uint32) *T { return &r.slots[seq&uint32(len(r.slots)-1)] }

// Get returns the value held for seq, if any.
func (r *Ring[T]) Get(seq uint32) (v T, ok bool) {
	if r.n == 0 || seq-r.lo > r.top-r.lo {
		return v, false
	}
	v = *r.slot(seq)
	var zero T
	return v, v != zero
}

// Take removes and returns the value held for seq, if any.
func (r *Ring[T]) Take(seq uint32) (v T, ok bool) {
	if r.n == 0 || seq-r.lo > r.top-r.lo {
		return v, false
	}
	slot := r.slot(seq)
	var zero T
	if v = *slot; v == zero {
		return v, false
	}
	*slot = zero
	r.n--
	return v, true
}

// Set stores v (which must not be the zero T) for seq, replacing any value
// already there. It reports false, storing nothing, when seq is MaxSpan or
// more away from a sequence number already held.
func (r *Ring[T]) Set(seq uint32, v T) bool {
	if r.n == 0 {
		if r.slots == nil {
			r.slots = make([]T, minSlots)
		}
		r.lo, r.top = seq, seq
	} else if seq-r.lo > r.top-r.lo {
		// Outside the bounds: settle them, then stretch the nearer one to seq
		// (the top when seq is a forward distance from lo, else lo itself).
		r.Min()
		r.Max()
		lo, top := r.lo, seq
		if seq-r.lo >= 1<<31 {
			lo, top = seq, r.top
		}
		if span := top - lo; span >= MaxSpan {
			return false
		} else if span >= uint32(len(r.slots)) {
			r.grow(span)
		}
		r.lo, r.top = lo, top
	}
	slot := r.slot(seq)
	var zero T
	if *slot == zero {
		r.n++
	}
	*slot = v
	return true
}

// Min returns the lowest occupied sequence number.
func (r *Ring[T]) Min() (seq uint32, ok bool) {
	if r.n == 0 {
		return 0, false
	}
	var zero T
	for *r.slot(r.lo) == zero {
		r.lo++
	}
	return r.lo, true
}

// Max returns the highest occupied sequence number.
func (r *Ring[T]) Max() (seq uint32, ok bool) {
	if r.n == 0 {
		return 0, false
	}
	var zero T
	for *r.slot(r.top) == zero {
		r.top--
	}
	return r.top, true
}

// All walks the occupied slots in sequence order. The loop body may Take the
// entry it is handed.
func (r *Ring[T]) All() iter.Seq2[uint32, T] {
	return func(yield func(uint32, T) bool) {
		var zero T
		for q, left := r.lo, r.n; left > 0; q++ {
			if v := *r.slot(q); v != zero {
				left--
				if !yield(q, v) {
					return
				}
			}
		}
	}
}

// DropBelow removes every entry whose sequence number is below floor. The cost
// is one slot per sequence number the low edge passes (none when the ring is
// empty), so a caller that follows its cumulative point pays O(1) per
// sequence number.
func (r *Ring[T]) DropBelow(floor uint32) {
	if d := floor - r.lo; r.n == 0 || d == 0 || d >= 1<<31 {
		return
	}
	var zero T
	for r.n > 0 && r.lo != floor {
		if slot := r.slot(r.lo); *slot != zero {
			*slot = zero
			r.n--
		}
		r.lo++
	}
}

// grow re-houses the occupied slots in an array wide enough for span.
func (r *Ring[T]) grow(span uint32) {
	size := 2 * len(r.slots)
	for uint32(size) <= span {
		size *= 2
	}
	old := r.slots
	r.slots = make([]T, size)
	var zero T
	for q, left := r.lo, r.n; left > 0; q++ {
		if v := old[q&uint32(len(old)-1)]; v != zero {
			*r.slot(q) = v
			left--
		}
	}
}

// Bitmap is a duplicate filter over the last Width sequence numbers: the
// window ends at the highest sequence number marked so far and covers exactly
// Width of them. It keeps one bit per sequence number.
type Bitmap struct {
	width   uint32
	hi      uint32 // highest sequence number marked; meaningful once started
	started bool
	words   []uint64 // a power-of-two number of bits >= width; bit of seq is seq&(bits-1)
}

// NewBitmap returns a filter remembering the last width sequence numbers
// (clamped to MaxSpan). A width of zero or less remembers nothing.
func NewBitmap(width int) *Bitmap {
	if width <= 0 {
		return &Bitmap{}
	}
	if width > MaxSpan {
		width = MaxSpan
	}
	nbits := 64
	for nbits < width {
		nbits *= 2
	}
	return &Bitmap{width: uint32(width), words: make([]uint64, nbits/64)}
}

// Mark records seq and reports whether it was already marked inside the
// window. A sequence number that has fallen behind the window is reported as
// new and not recorded: the filter has forgotten it either way.
func (b *Bitmap) Mark(seq uint32) (dup bool) {
	if b.width == 0 {
		return false
	}
	mask := uint32(len(b.words))*64 - 1
	if !b.started {
		b.started, b.hi = true, seq
	} else if ahead := seq - b.hi; ahead-1 < 1<<31-1 { // 0 < ahead < 2^31
		// The window slides up to seq: the slots it moves onto still carry
		// the sequence numbers one ring-length below.
		if ahead > mask {
			clear(b.words)
		} else {
			for q := b.hi + 1; q != seq+1; q++ {
				b.words[(q&mask)>>6] &^= 1 << (q & 63)
			}
		}
		b.hi = seq
	} else if b.hi-seq >= b.width {
		return false
	}
	w, bit := &b.words[(seq&mask)>>6], uint64(1)<<(seq&63)
	dup = *w&bit != 0
	*w |= bit
	return dup
}
