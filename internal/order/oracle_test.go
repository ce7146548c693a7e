package order

import (
	"math/rand"
	"slices"
	"testing"

	"adaptive/internal/mechanism"
	"adaptive/internal/message"
)

// The orderers these replaced, kept as oracles: a map plus an eviction ring
// for Unordered, a map for Sequenced. The windowed implementations are driven
// against them with seeded inputs below.

type mapUnordered struct {
	seen    map[uint32]bool
	ring    []uint32
	ringPos int
}

func newMapUnordered(window int) *mapUnordered {
	u := &mapUnordered{}
	if window > 0 {
		u.seen = make(map[uint32]bool, window)
		u.ring = make([]uint32, window)
		for i := range u.ring {
			u.ring[i] = ^uint32(0)
		}
	}
	return u
}

// dup reports whether seq is a duplicate, recording it if not.
func (u *mapUnordered) dup(seq uint32) bool {
	if u.seen == nil {
		return false
	}
	if u.seen[seq] {
		return true
	}
	if old := u.ring[u.ringPos]; old != ^uint32(0) {
		delete(u.seen, old)
	}
	u.ring[u.ringPos] = seq
	u.seen[seq] = true
	u.ringPos = (u.ringPos + 1) % len(u.ring)
	return false
}

type mapSequenced struct {
	next    uint32
	held    map[uint32]bool
	max     int
	dropped uint64
}

// submit returns the sequence numbers delivered.
func (s *mapSequenced) submit(seq uint32) (out []uint32) {
	if seq < s.next || s.held[seq] {
		return nil
	}
	if len(s.held) >= s.max {
		s.dropped++
		return nil
	}
	s.held[seq] = true
	return s.drain(out)
}

func (s *mapSequenced) drain(out []uint32) []uint32 {
	for s.held[s.next] {
		delete(s.held, s.next)
		out = append(out, s.next)
		s.next++
	}
	return out
}

func (s *mapSequenced) skip(seq uint32) (out []uint32) {
	if seq <= s.next {
		return nil
	}
	for q := s.next; q < seq; q++ {
		if s.held[q] {
			delete(s.held, q)
			out = append(out, q)
		}
	}
	s.next = seq
	return s.drain(out)
}

func (s *mapSequenced) flush() (out []uint32) {
	for q := range s.held {
		out = append(out, q)
	}
	slices.Sort(out)
	clear(s.held)
	if n := len(out); n > 0 && out[n-1] >= s.next {
		s.next = out[n-1] + 1
	}
	return out
}

func seqs(ds []mechanism.Delivery) (out []uint32) {
	for _, d := range ds {
		out = append(out, d.Seq)
		d.Msg.Release()
	}
	return out
}

// TestUnorderedMatchesMapOracle feeds both filters the traffic the orderer
// sees: a forward stream with losses, reordering bounded by R and duplicates
// of anything inside the window both filters are bound to remember. The old
// filter remembers the last `window` accepted arrivals, the new one the last
// `window` sequence numbers; with reordering bounded by R they agree on every
// duplicate less than window-R behind the highest sequence seen, so that is
// where the stream's duplicates are drawn from. This is agreement on the
// common region only: where the two differ is pinned by
// TestUnorderedWindowIsSequenceSpaceNotArrivals, the window edges after an
// in-order run by TestUnorderedWindowEdgesMatchOracle (and seqwin's
// TestBitmapWindow).
func TestUnorderedMatchesMapOracle(t *testing.T) {
	const R = 6
	for _, window := range []int{16, 63, 64, 65, 100, 256, 1000} {
		for _, start := range []uint32{0, 77777, ^uint32(0) - uint32(window), ^uint32(0) - 3} {
			rng := rand.New(rand.NewSource(int64(window)*31 + int64(start)))
			u, oracle := NewUnordered(window), newMapUnordered(window)
			submit := func(seq uint32) {
				t.Helper()
				got := u.Submit(seq, message.Alloc(0, 0), false)
				want := !oracle.dup(seq)
				if (len(got) == 1) != want {
					t.Fatalf("window %d start %d: seq %d delivered=%v, oracle %v", window, start, seq, len(got) == 1, want)
				}
				seqs(got)
			}
			var pending []uint32 // reordered arrivals waiting their turn
			hi, sent := start, false
			for i := 0; i < 20*window; i++ {
				seq := start + uint32(i)
				switch r := rng.Intn(100); {
				case r < 3: // lost
				case r < 10 && len(pending) < R: // held back, arrives up to R later
					pending = append(pending, seq)
				default:
					submit(seq)
					hi, sent = seq, true
				}
				if len(pending) > 0 && (rng.Intn(3) == 0 || pending[0]+R <= seq) {
					submit(pending[0])
					pending = pending[1:]
				}
				if sent && rng.Intn(8) == 0 {
					// A duplicate, or the late original of a lost one.
					submit(hi - uint32(rng.Intn(min(window-R, int(hi-start)+1))))
				}
			}
		}
	}
}

// TestUnorderedWindowEdgesMatchOracle probes both filters just inside and
// just outside the window after a clean in-order run, where "the last window
// arrivals" and "the last window sequence numbers" are the same set.
func TestUnorderedWindowEdgesMatchOracle(t *testing.T) {
	for _, window := range []int{1, 7, 64, 100, 129} {
		for _, start := range []uint32{0, ^uint32(0) - uint32(window) - 2, ^uint32(0)} {
			for _, back := range []int{0, window - 1, window, window + 1} {
				u, oracle := NewUnordered(window), newMapUnordered(window)
				hi := start
				for i := 0; i < 3*window+5; i++ {
					hi = start + uint32(i)
					seqs(u.Submit(hi, message.Alloc(0, 0), false))
					oracle.dup(hi)
				}
				probe := hi - uint32(back)
				got := len(u.Submit(probe, message.Alloc(0, 0), false)) == 0
				if want := oracle.dup(probe); got != want {
					t.Fatalf("window %d start %d: %d behind the highest: duplicate=%v, oracle %v", window, start, back, got, want)
				}
			}
		}
	}
}

// TestUnorderedWindowIsSequenceSpaceNotArrivals pins where the two filters
// part. The map one remembered the last `window` accepted ARRIVALS, the bitmap
// remembers the last `window` SEQUENCE NUMBERS up to the highest seen (the
// usual anti-replay window), so once loss or reordering separates the two sets
// each forgets something the other still knows.
func TestUnorderedWindowIsSequenceSpaceNotArrivals(t *testing.T) {
	for _, tc := range []struct {
		name            string
		arrivals        []uint32
		probe           uint32
		oldDup, wantDup bool
	}{
		// A jump ahead (loss) slides the window past 1; the map had only
		// counted four arrivals and still held it.
		{"old duplicate behind a jump is delivered again", []uint32{1, 2, 3, 10}, 1, true, false},
		// Four ancient stragglers are four arrivals, enough to push 99 out of
		// the map; they are below the window and leave the bitmap alone.
		{"stragglers do not evict the window", []uint32{100, 99, 1, 2, 3, 4}, 99, false, true},
	} {
		u, oracle := NewUnordered(4), newMapUnordered(4)
		for _, seq := range tc.arrivals {
			if len(u.Submit(seq, message.Alloc(0, 0), false)) != 1 || oracle.dup(seq) {
				t.Fatalf("%s: first arrival of %d filtered", tc.name, seq)
			}
		}
		if old := oracle.dup(tc.probe); old != tc.oldDup {
			t.Fatalf("%s: map filter says duplicate=%v, expected %v", tc.name, old, tc.oldDup)
		}
		if got := len(u.Submit(tc.probe, message.Alloc(0, 0), false)) == 0; got != tc.wantDup {
			t.Fatalf("%s: duplicate=%v, want %v", tc.name, got, tc.wantDup)
		}
	}
}

// TestSequencedMatchesMapOracle drives the windowed Sequenced and the map one
// with the same seeded submissions, skips and flushes.
func TestSequencedMatchesMapOracle(t *testing.T) {
	for seed := int64(1); seed <= 20; seed++ {
		rng := rand.New(rand.NewSource(seed))
		max := 4 + rng.Intn(40)
		s := NewSequenced(max)
		oracle := &mapSequenced{held: map[uint32]bool{}, max: max}
		check := func(what string, got []mechanism.Delivery, want []uint32) {
			t.Helper()
			if g := seqs(got); !slices.Equal(g, want) {
				t.Fatalf("seed %d: %s delivered %v, oracle %v", seed, what, g, want)
			}
			if s.Held() != len(oracle.held) || s.Dropped != oracle.dropped || s.next != oracle.next {
				t.Fatalf("seed %d: after %s held/dropped/next = %d/%d/%d, oracle %d/%d/%d", seed, what,
					s.Held(), s.Dropped, s.next, len(oracle.held), oracle.dropped, oracle.next)
			}
		}
		for i := 0; i < 5000; i++ {
			switch r := rng.Intn(100); {
			case r < 90:
				seq := oracle.next + uint32(rng.Intn(60)) - 5 // mostly ahead, sometimes stale
				if int32(seq) < 0 {
					seq = 0
				}
				check("Submit", s.Submit(seq, message.Alloc(0, 0), false), oracle.submit(seq))
			case r < 97:
				seq := oracle.next + uint32(rng.Intn(30))
				check("Skip", s.Skip(seq), oracle.skip(seq))
			default:
				check("Flush", s.Flush(), oracle.flush())
			}
		}
	}
}
