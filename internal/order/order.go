// Package order provides the sequencing mechanisms (the paper's
// order-sensitivity column in Table 1): strict in-order delivery for
// order-sensitive applications, and duplicate-filtered as-they-arrive
// delivery for order-insensitive media streams.
//
// Recovery strategies already release reliable traffic in order; the orderer
// matters for unreliable ("none") and loss-tolerant (FEC) recovery, where
// arrival order is network order.
package order

import (
	"adaptive/internal/mechanism"
	"adaptive/internal/message"
	"adaptive/internal/seqwin"
)

// Sequenced delivers strictly in sequence order; anything arriving early is
// held until the gap fills (or a loss-tolerant recovery advances past it via
// Skip).
type Sequenced struct {
	next    uint32
	held    seqwin.Ring[mechanism.Delivery] // early arrivals, all at or above next
	max     int                             // cap on held entries; overflow drops newest (backpressure)
	Dropped uint64

	// out is the reusable delivery slice returned by Submit/Skip/Flush.
	// Callers consume the run synchronously before the next submission (the
	// session delivers inline), so one scratch buffer per orderer suffices
	// and steady-state delivery allocates nothing.
	out []mechanism.Delivery
}

var _ mechanism.Orderer = (*Sequenced)(nil)

// NewSequenced returns an in-order delivery mechanism starting at sequence 0
// holding at most maxHeld out-of-order messages.
func NewSequenced(maxHeld int) *Sequenced {
	if maxHeld <= 0 {
		maxHeld = 1024
	}
	return &Sequenced{max: maxHeld}
}

func (s *Sequenced) Name() string { return "sequenced" }

// Submit accepts seq and returns the contiguous run now deliverable.
func (s *Sequenced) Submit(seq uint32, m *message.Message, eom bool) []mechanism.Delivery {
	if seq < s.next {
		m.Release() // duplicate of already-delivered data
		return nil
	}
	d := mechanism.Delivery{Seq: seq, Msg: m, EOM: eom}
	if seq == s.next && s.held.Len() == 0 {
		// In order with nothing waiting: the run is this message alone.
		s.next++
		s.out = append(s.out[:0], d)
		return s.out
	}
	if _, dup := s.held.Get(seq); dup {
		m.Release()
		return nil
	}
	if s.held.Len() >= s.max || !s.held.Set(seq, d) {
		s.Dropped++
		m.Release()
		return nil
	}
	s.out = s.drain(s.out[:0])
	return s.out
}

// drain appends the contiguous run starting at next, advancing next past it.
func (s *Sequenced) drain(out []mechanism.Delivery) []mechanism.Delivery {
	for {
		d, ok := s.held.Take(s.next)
		if !ok {
			return out
		}
		s.next++
		out = append(out, d)
	}
}

// Skip abandons sequences below seq (loss-tolerant gap abandonment): held
// messages past the gap become deliverable.
func (s *Sequenced) Skip(seq uint32) []mechanism.Delivery {
	if seq <= s.next {
		return nil
	}
	// Deliver everything in [next, seq) that did arrive, in order, then
	// continue the contiguous run from seq.
	out := s.out[:0]
	for q := s.next; q < seq && s.held.Len() > 0; q++ {
		if d, ok := s.held.Take(q); ok {
			out = append(out, d)
		}
	}
	s.next = seq
	s.out = s.drain(out)
	return s.out
}

// Flush releases all held messages in sequence order (teardown).
func (s *Sequenced) Flush() []mechanism.Delivery {
	var out []mechanism.Delivery
	for q, d := range s.held.All() {
		s.held.Take(q)
		out = append(out, d)
		s.next = q + 1
	}
	return out
}

// Held returns the number of messages waiting on a gap.
func (s *Sequenced) Held() int { return s.held.Len() }

// Unordered delivers immediately in arrival order, filtering duplicates with
// a sliding window of seen sequence numbers.
type Unordered struct {
	seen       *seqwin.Bitmap
	Duplicates uint64

	// out is the reusable single-delivery slice returned by Submit; callers
	// consume it synchronously before the next submission.
	out [1]mechanism.Delivery
}

var _ mechanism.Orderer = (*Unordered)(nil)

// NewUnordered returns an arrival-order delivery mechanism remembering the
// last window sequence numbers for duplicate suppression (0 disables the
// filter).
func NewUnordered(window int) *Unordered {
	return &Unordered{seen: seqwin.NewBitmap(window)}
}

func (u *Unordered) Name() string { return "unordered" }

func (u *Unordered) Submit(seq uint32, m *message.Message, eom bool) []mechanism.Delivery {
	if u.seen.Mark(seq) {
		u.Duplicates++
		m.Release()
		return nil
	}
	u.out[0] = mechanism.Delivery{Seq: seq, Msg: m, EOM: eom}
	return u.out[:]
}

// Skip is a no-op for unordered delivery: nothing is ever held back.
func (u *Unordered) Skip(uint32) []mechanism.Delivery { return nil }

func (u *Unordered) Flush() []mechanism.Delivery { return nil }
