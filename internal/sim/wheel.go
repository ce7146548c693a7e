package sim

import (
	"math/bits"
	"time"
)

// Hierarchical timing wheel (Varghese & Lauck), adapted to a discrete-event
// kernel: instead of ticking, the wheel jumps its reference instant straight
// to the next live event's timestamp during extraction.
//
// Placement is XOR-based: an event scheduled for time `at` lives at the level
// of the most significant bit in which `at` differs from the wheel's current
// reference `cur`, in the slot addressed by `at`'s bit-field for that level.
// Because live events never precede cur, this gives three invariants the
// kernel relies on:
//
//  1. Within a level, slot index order is timestamp order, so the first
//     occupied slot at the lowest populated level bounds the minimum.
//  2. All events in a level-0 slot share one exact timestamp.
//  3. When cur advances to the global minimum tmin, only the slots that
//     contain tmin itself ((tmin>>6L)&63 at each level) can hold events whose
//     level assignment became stale; cascading exactly those slots restores
//     the invariant. Every other slot keeps both its level and index, since
//     slot indices are absolute bit-fields of the timestamp.
//
// Events more than 2^48 ns (~78 h) past cur overflow into a small binary
// heap ordered by (at, seq) and migrate onto the wheel as cur advances.
const (
	wheelBits   = 6
	wheelSlots  = 1 << wheelBits
	slotMask    = wheelSlots - 1
	wheelLevels = 8
	wheelSpan   = wheelBits * wheelLevels // bits of ns the wheel covers
)

type wheel struct {
	cur      time.Duration // reference instant; live events never precede it
	slots    [wheelLevels][wheelSlots]*Event
	occ      [wheelLevels]uint64 // per-level slot occupancy bitmap
	overflow overflowHeap

	// min caches minLive's answer between the peek that decides whether to
	// step and the step itself (and across peeks that decline to), so the
	// slot lists — canceled events included — are walked once per extraction,
	// not twice. insert lowers it, stopping an event due at it or extracting
	// invalidates it.
	min   time.Duration
	minOK bool
}

// insert places ev, which must satisfy ev.at >= w.cur.
func (w *wheel) insert(ev *Event) {
	if w.minOK && ev.at < w.min {
		w.min = ev.at
	}
	d := uint64(ev.at) ^ uint64(w.cur)
	if d>>wheelSpan != 0 {
		w.overflow.push(ev)
		return
	}
	lvl := 0
	if d != 0 {
		lvl = (bits.Len64(d) - 1) / wheelBits
	}
	slot := int(uint64(ev.at)>>(lvl*wheelBits)) & slotMask
	ev.next = w.slots[lvl][slot]
	w.slots[lvl][slot] = ev
	w.occ[lvl] |= 1 << slot
}

// minLive returns the earliest timestamp among non-canceled events. It never
// advances cur: callers (RunUntil) may decline to extract and later schedule
// events earlier than the peeked time. Canceled events it walks over are
// reaped, so none is walked twice.
func (w *wheel) minLive(k *Kernel) (time.Duration, bool) {
	if !w.minOK {
		w.min, w.minOK = w.scanMin(k)
	}
	return w.min, w.minOK
}

// stopped tells the wheel an event due at `at` was canceled.
func (w *wheel) stopped(at time.Duration) {
	if at == w.min {
		w.minOK = false
	}
}

func (w *wheel) scanMin(k *Kernel) (time.Duration, bool) {
	for lvl := 0; lvl < wheelLevels; lvl++ {
		curSlot := int(uint64(w.cur)>>(lvl*wheelBits)) & slotMask
		// Slots below cur's own can only hold stale canceled events.
		m := w.occ[lvl] &^ (1<<curSlot - 1)
		for m != 0 {
			s := bits.TrailingZeros64(m)
			m &= m - 1
			best := time.Duration(-1)
			for link := &w.slots[lvl][s]; *link != nil; {
				e := *link
				if e.canceled {
					*link, e.next = e.next, nil
					k.reap(e)
					continue
				}
				if best < 0 || e.at < best {
					best = e.at
				}
				link = &e.next
			}
			if best >= 0 {
				return best, true
			}
			w.occ[lvl] &^= 1 << s
		}
	}
	best := time.Duration(-1)
	for _, e := range w.overflow {
		if !e.canceled && (best < 0 || e.at < best) {
			best = e.at
		}
	}
	if best >= 0 {
		return best, true
	}
	return 0, false
}

// extract advances cur to tmin (the current live minimum, as returned by
// minLive), restores placement invariants, and appends every live event due
// exactly at tmin to k.due. Canceled events touched along the way are reaped.
func (w *wheel) extract(tmin time.Duration, k *Kernel) {
	w.cur = tmin
	w.minOK = false
	// Overflow events now within the wheel span migrate in. The heap is
	// ordered by at, and XOR distance from tmin is monotonic in at for
	// at >= tmin, so a while-top-qualifies loop is exact.
	for len(w.overflow) > 0 {
		top := w.overflow[0]
		if (uint64(top.at)^uint64(tmin))>>wheelSpan != 0 {
			break
		}
		w.overflow.pop()
		if top.canceled {
			k.reap(top)
		} else {
			w.insert(top)
		}
	}
	// Cascade the slot containing tmin at each level, top down: its events
	// agree with tmin through that level's bits, so each re-inserts strictly
	// lower (reaching level 0's due slot when at == tmin).
	for lvl := wheelLevels - 1; lvl >= 1; lvl-- {
		slot := int(uint64(tmin)>>(lvl*wheelBits)) & slotMask
		e := w.slots[lvl][slot]
		if e == nil {
			continue
		}
		w.slots[lvl][slot] = nil
		w.occ[lvl] &^= 1 << slot
		for e != nil {
			next := e.next
			e.next = nil
			if e.canceled {
				k.reap(e)
			} else {
				w.insert(e)
			}
			e = next
		}
	}
	// Drain the due slot. Live events here have at == tmin exactly
	// (invariant 2); stale canceled leftovers are reaped.
	slot := int(uint64(tmin)) & slotMask
	e := w.slots[0][slot]
	w.slots[0][slot] = nil
	w.occ[0] &^= 1 << slot
	for e != nil {
		next := e.next
		e.next = nil
		if e.canceled {
			k.reap(e)
		} else {
			k.due = append(k.due, e)
		}
		e = next
	}
	// FIFO among same-instant events: sort the batch by schedule order.
	// Insertion sort — batches are small and usually nearly sorted.
	due := k.due
	for i := 1; i < len(due); i++ {
		for j := i; j > 0 && due[j].seq < due[j-1].seq; j-- {
			due[j], due[j-1] = due[j-1], due[j]
		}
	}
}

// purgeInto reaps every remaining event (all necessarily canceled when called
// after minLive reports none live) and empties the wheel.
func (w *wheel) purgeInto(k *Kernel) {
	for lvl := range w.slots {
		if w.occ[lvl] == 0 {
			continue
		}
		for s := range w.slots[lvl] {
			for e := w.slots[lvl][s]; e != nil; {
				next := e.next
				e.next = nil
				k.reap(e)
				e = next
			}
			w.slots[lvl][s] = nil
		}
		w.occ[lvl] = 0
	}
	for _, e := range w.overflow {
		k.reap(e)
	}
	w.overflow = w.overflow[:0]
	w.minOK = false
}

// overflowHeap is a binary min-heap of events ordered by (at, seq), used for
// timestamps beyond the wheel span. Lazy cancellation means it only ever
// needs push and pop.
type overflowHeap []*Event

func (h overflowHeap) less(i, j int) bool {
	if h[i].at != h[j].at {
		return h[i].at < h[j].at
	}
	return h[i].seq < h[j].seq
}

func (h *overflowHeap) push(ev *Event) {
	*h = append(*h, ev)
	a := *h
	i := len(a) - 1
	for i > 0 {
		p := (i - 1) / 2
		if !a.less(i, p) {
			break
		}
		a[i], a[p] = a[p], a[i]
		i = p
	}
}

func (h *overflowHeap) pop() *Event {
	a := *h
	top := a[0]
	n := len(a) - 1
	a[0] = a[n]
	a[n] = nil
	a = a[:n]
	*h = a
	i := 0
	for {
		l, r := 2*i+1, 2*i+2
		s := i
		if l < n && a.less(l, s) {
			s = l
		}
		if r < n && a.less(r, s) {
			s = r
		}
		if s == i {
			break
		}
		a[i], a[s] = a[s], a[i]
		i = s
	}
	return top
}
