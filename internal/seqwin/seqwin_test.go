package seqwin

import (
	"math/rand"
	"sort"
	"testing"
)

type val struct{ seq uint32 } // non-zero for every seq: seq+1 below

// checkAgainst compares every observable of the ring with a map model.
func checkAgainst(t *testing.T, r *Ring[*val], model map[uint32]*val, probe []uint32) {
	t.Helper()
	if r.Len() != len(model) {
		t.Fatalf("Len = %d, model has %d", r.Len(), len(model))
	}
	for _, q := range probe {
		got, ok := r.Get(q)
		want, wok := model[q]
		if ok != wok || got != want {
			t.Fatalf("Get(%d) = %v,%v; model %v,%v", q, got, ok, want, wok)
		}
	}
	var keys []uint32
	for q := range model {
		keys = append(keys, q)
	}
	if len(keys) == 0 {
		if _, ok := r.Min(); ok {
			t.Fatal("Min on empty ring reported an entry")
		}
		if _, ok := r.Max(); ok {
			t.Fatal("Max on empty ring reported an entry")
		}
		return
	}
	// Serial order relative to any member (all within MaxSpan of each other).
	ref := keys[0]
	sort.Slice(keys, func(i, j int) bool { return int32(keys[i]-ref) < int32(keys[j]-ref) })
	if lo, _ := r.Min(); lo != keys[0] {
		t.Fatalf("Min = %d, want %d", lo, keys[0])
	}
	if hi, _ := r.Max(); hi != keys[len(keys)-1] {
		t.Fatalf("Max = %d, want %d", hi, keys[len(keys)-1])
	}
	i := 0
	for q, v := range r.All() {
		if i >= len(keys) || q != keys[i] || v != model[q] {
			t.Fatalf("All yielded %d at position %d, want %d", q, i, keys[i])
		}
		i++
	}
	if i != len(keys) {
		t.Fatalf("All yielded %d entries, want %d", i, len(keys))
	}
}

// TestRingMatchesMap drives a ring and a map with the same seeded operations
// over a window that slides forward (and across 2^32): inserts ahead of and
// behind the current contents, takes from both ends and the middle, and
// cumulative drops.
func TestRingMatchesMap(t *testing.T) {
	for _, start := range []uint32{0, 1 << 31, ^uint32(0) - 300} {
		rng := rand.New(rand.NewSource(int64(start) + 7))
		var r Ring[*val]
		model := map[uint32]*val{}
		floor := start
		for step := 0; step < 20000; step++ {
			q := floor + uint32(rng.Intn(200))
			switch op := rng.Intn(10); {
			case op < 5:
				v := &val{q}
				if !r.Set(q, v) {
					t.Fatalf("Set(%d) refused inside a 200-wide window", q)
				}
				model[q] = v
			case op < 8:
				got, ok := r.Take(q)
				want, wok := model[q]
				if ok != wok || got != want {
					t.Fatalf("Take(%d) = %v,%v; model %v,%v", q, got, ok, want, wok)
				}
				delete(model, q)
			default:
				floor += uint32(rng.Intn(40))
				r.DropBelow(floor)
				for k := range model {
					if int32(k-floor) < 0 {
						delete(model, k)
					}
				}
			}
			if step%97 == 0 {
				probe := make([]uint32, 0, 260)
				for d := -30; d < 230; d++ {
					probe = append(probe, floor+uint32(d))
				}
				checkAgainst(t, &r, model, probe)
			}
		}
	}
}

func TestRingRefusesBeyondMaxSpan(t *testing.T) {
	var r Ring[*val]
	base := ^uint32(0) - 10 // straddles 2^32
	r.Set(base, &val{})
	if r.Set(base+MaxSpan, &val{}) {
		t.Fatal("accepted an entry MaxSpan above the lowest one")
	}
	if r.Set(base-MaxSpan, &val{}) {
		t.Fatal("accepted an entry MaxSpan below the lowest one")
	}
	if !r.Set(base+MaxSpan-1, &val{}) {
		t.Fatal("refused an entry inside MaxSpan")
	}
	if r.Len() != 2 {
		t.Fatalf("Len = %d, want 2", r.Len())
	}
	// Once the low entry goes, the window follows its contents.
	r.Take(base)
	if !r.Set(base+MaxSpan+5, &val{}) {
		t.Fatal("window did not follow its contents after the low entry left")
	}
}

// TestRingSteadyStateDoesNotGrow is the transfer pattern: entries taken from
// the bottom as new ones arrive at the top. The slot array must stay at the
// size of the window, and the churn must not allocate.
func TestRingSteadyStateDoesNotGrow(t *testing.T) {
	var r Ring[*val]
	v := &val{}
	const window = 64
	var next uint32
	for ; next < window; next++ {
		r.Set(next, v)
	}
	allocs := testing.AllocsPerRun(10000, func() {
		r.Take(next - window)
		r.Set(next, v)
		next++
	})
	if allocs != 0 {
		t.Fatalf("sliding a full window: %v allocs/op, want 0", allocs)
	}
	if len(r.slots) != window {
		t.Fatalf("slot array grew to %d for a %d-wide window", len(r.slots), window)
	}
}

func TestRingTakeWhileRanging(t *testing.T) {
	var r Ring[*val]
	for q := uint32(10); q < 30; q += 3 {
		r.Set(q, &val{q})
	}
	var got []uint32
	for q := range r.All() {
		r.Take(q)
		got = append(got, q)
	}
	if r.Len() != 0 || len(got) != 7 || got[0] != 10 || got[6] != 28 {
		t.Fatalf("drained %v, %d left", got, r.Len())
	}
}

// TestBitmapWindow pins the filter's edges on an in-order stream: a sequence
// number exactly width-1 behind the highest is still remembered, one further
// back is forgotten (reported new, and not recorded), whatever the width's
// relation to the 64-bit words underneath and wherever 2^32 falls.
func TestBitmapWindow(t *testing.T) {
	for _, width := range []int{1, 2, 63, 64, 65, 100, 256, 1000} {
		for _, start := range []uint32{0, 12345, ^uint32(0) - uint32(width)/2, ^uint32(0)} {
			b := NewBitmap(width)
			hi := start
			for i := 0; i < 3*width+70; i++ {
				hi = start + uint32(i)
				if b.Mark(hi) {
					t.Fatalf("width %d: fresh seq %d reported duplicate", width, hi)
				}
			}
			if !b.Mark(hi) {
				t.Fatalf("width %d: repeat of the highest not caught", width)
			}
			if !b.Mark(hi - uint32(width) + 1) {
				t.Fatalf("width %d: duplicate at the window's low edge not caught", width)
			}
			if b.Mark(hi - uint32(width)) {
				t.Fatalf("width %d: sequence just below the window reported duplicate", width)
			}
			if b.Mark(hi - uint32(width)) {
				t.Fatalf("width %d: a forgotten sequence was recorded", width)
			}
		}
	}
}

func TestBitmapJumpClearsHistory(t *testing.T) {
	b := NewBitmap(100)
	for q := uint32(0); q < 100; q++ {
		b.Mark(q)
	}
	b.Mark(5000) // far ahead: everything older is out of the window
	for q := uint32(4901); q < 5000; q++ {
		if b.Mark(q) {
			t.Fatalf("seq %d reported duplicate after the window jumped over it", q)
		}
	}
	if !b.Mark(4950) {
		t.Fatal("mark inside the new window was not kept")
	}
}

func TestBitmapDisabled(t *testing.T) {
	b := NewBitmap(0)
	if b.Mark(1) || b.Mark(1) {
		t.Fatal("a zero-width filter reported a duplicate")
	}
}
