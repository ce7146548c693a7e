// Package sim provides a deterministic discrete-event simulation kernel.
//
// Every experiment in this repository runs against virtual time: protocol
// timers, link serialization delays, and workload arrivals are all events on
// a hierarchical timing wheel (see wheel.go). Two runs with the same seed
// produce identical schedules — same-instant events fire in schedule (seq)
// order — which is what makes the paper's "controlled, empirical
// experimentation" (ADAPTIVE §3D) reproducible.
//
// Event objects are pooled on a kernel-local free list: steady-state
// scheduling allocates nothing. Schedule returns a value-type Timer handle
// carrying a generation counter, so a handle held past its event's firing
// (or cancellation) can never act on a recycled Event.
package sim

import (
	"fmt"
	"math/rand"
	"time"

	"adaptive/internal/trace"
)

// Event is a scheduled callback, owned and recycled by the kernel. User code
// never holds an *Event directly; it holds a Timer.
type Event struct {
	at       time.Duration
	seq      uint64 // tie-breaker: FIFO among events at the same instant
	fn       func()
	afn      func(any) // closure-free variant (ScheduleArg)
	arg      any
	next     *Event // intrusive link: wheel slot list or kernel free list
	gen      uint32 // bumped on every recycle; validates Timer handles
	canceled bool
}

// Timer is a cancellable handle to a scheduled event. It is a small value
// (safe to copy, zero value is inert) and stays safe to use after the event
// fires: the generation check makes Stop/Pending on a spent handle a no-op
// even though the underlying Event object has been recycled.
type Timer struct {
	k   *Kernel
	ev  *Event
	gen uint32
}

func (t Timer) live() bool { return t.ev != nil && t.ev.gen == t.gen && !t.ev.canceled }

// Stop cancels the event; it reports whether the event was still pending.
// Stopping a fired or already-stopped timer is a no-op. Cancellation is lazy —
// the event object is reaped when the kernel next touches it — but the
// kernel's live-event count is adjusted here, so Pending() never counts
// stopped events.
func (t Timer) Stop() bool {
	if !t.live() {
		return false
	}
	t.ev.canceled = true
	t.k.stopped++
	t.k.wh.stopped(t.ev.at)
	if t.k.tracer != nil {
		// Keyed: timer stops are per-packet-rate (delayed-ack cancels), so
		// sampled recordings thin them like fires instead of keeping all.
		t.k.tracer.EmitKeyed(t.ev.seq, t.k.now, trace.KTimerStop, 0, t.ev.seq, 0, 0)
	}
	return true
}

// Pending reports whether the event has neither fired nor been stopped.
func (t Timer) Pending() bool { return t.live() }

// At returns the virtual time the event is scheduled to fire, or false if it
// already fired or was stopped.
func (t Timer) At() (time.Duration, bool) {
	if !t.live() {
		return 0, false
	}
	return t.ev.at, true
}

// Kernel is a single-threaded discrete-event scheduler with a virtual clock.
// All protocol code in a simulation runs inside kernel callbacks; the kernel
// itself is not safe for concurrent use.
type Kernel struct {
	now      time.Duration
	wh       wheel
	due      []*Event // current-instant batch, seq-sorted
	dueIdx   int      // consumed prefix of due
	free     *Event   // recycled Event objects
	seq      uint64
	rng      *rand.Rand
	executed uint64
	queued   int    // scheduled events not yet fired or reaped
	stopped  int    // canceled events awaiting reap (queued includes them)
	limit    uint64 // safety valve against runaway simulations; 0 = none
	tracer   *trace.Recorder
}

// SetTracer attaches a flight recorder; nil (the default) disables tracing,
// reducing every hook to a single branch.
func (k *Kernel) SetTracer(r *trace.Recorder) { k.tracer = r }

// Tracer returns the attached flight recorder (nil when tracing is off).
// Subsystems driven by this kernel (netsim, sessions) read it per event, so
// attaching a tracer instruments the whole world behind the kernel.
func (k *Kernel) Tracer() *trace.Recorder { return k.tracer }

// NewKernel returns a kernel whose clock starts at zero and whose random
// source is seeded deterministically.
func NewKernel(seed int64) *Kernel {
	return &Kernel{rng: rand.New(rand.NewSource(seed))}
}

// Now returns the current virtual time.
func (k *Kernel) Now() time.Duration { return k.now }

// Rand returns the kernel's deterministic random source.
func (k *Kernel) Rand() *rand.Rand { return k.rng }

// Executed returns the number of events processed so far.
func (k *Kernel) Executed() uint64 { return k.executed }

// SetEventLimit installs a safety cap on the number of events a Run may
// process; exceeding it panics (indicating a protocol livelock in a test).
func (k *Kernel) SetEventLimit(n uint64) { k.limit = n }

func (k *Kernel) allocEvent() *Event {
	if ev := k.free; ev != nil {
		k.free = ev.next
		ev.next = nil
		return ev
	}
	// Grow the free list a block at a time: warming up to the peak number
	// of concurrently scheduled events costs one allocation per eventBlock
	// Events instead of one each. Events are only ever recycled through the
	// free list, so carving them from one backing array is safe.
	blk := make([]Event, eventBlock)
	for i := 1; i < len(blk); i++ {
		blk[i].next = k.free
		k.free = &blk[i]
	}
	return &blk[0]
}

// eventBlock is the free-list growth granule.
const eventBlock = 64

// reap recycles an event onto the free list, invalidating outstanding Timer
// handles via the generation bump.
func (k *Kernel) reap(ev *Event) {
	ev.gen++
	ev.fn, ev.afn, ev.arg = nil, nil, nil
	if ev.canceled {
		ev.canceled = false
		k.stopped--
	}
	ev.next = k.free
	k.free = ev
	k.queued--
}

func (k *Kernel) schedule(delay time.Duration, fn func(), afn func(any), arg any) Timer {
	if delay < 0 {
		delay = 0
	}
	ev := k.allocEvent()
	k.seq++
	ev.at = k.now + delay
	ev.seq = k.seq
	ev.fn, ev.afn, ev.arg = fn, afn, arg
	k.wh.insert(ev)
	k.queued++
	return Timer{k: k, ev: ev, gen: ev.gen}
}

// Schedule runs fn after delay of virtual time. A negative delay is treated
// as zero (run at the current instant, after already-pending events at this
// instant).
func (k *Kernel) Schedule(delay time.Duration, fn func()) Timer {
	if fn == nil {
		panic("sim: Schedule with nil fn")
	}
	return k.schedule(delay, fn, nil, nil)
}

// ScheduleArg runs fn(arg) after delay. It exists so hot paths can schedule
// without constructing a fresh closure per event: fn is typically a package-
// level function and arg a pooled state object.
func (k *Kernel) ScheduleArg(delay time.Duration, fn func(any), arg any) Timer {
	if fn == nil {
		panic("sim: ScheduleArg with nil fn")
	}
	return k.schedule(delay, nil, fn, arg)
}

// ScheduleAt runs fn at absolute virtual time t (clamped to now).
func (k *Kernel) ScheduleAt(t time.Duration, fn func()) Timer {
	return k.Schedule(t-k.now, fn)
}

// nextLive returns the earliest live event, extracting the next due batch
// from the wheel as needed, or nil when nothing remains. The returned event
// is left at k.due[k.dueIdx].
func (k *Kernel) nextLive() *Event {
	for {
		for k.dueIdx < len(k.due) {
			ev := k.due[k.dueIdx]
			if !ev.canceled {
				return ev
			}
			k.dueIdx++
			k.reap(ev)
		}
		k.due = k.due[:0]
		k.dueIdx = 0
		tmin, ok := k.wh.minLive(k)
		if !ok {
			if k.queued > 0 {
				// Only canceled events remain; drop them all.
				k.wh.purgeInto(k)
			}
			return nil
		}
		k.wh.extract(tmin, k)
	}
}

// peekAt returns the timestamp of the earliest live event without extracting
// from the wheel (extraction advances the wheel's reference instant, which
// must not happen for events the caller may decline to run).
func (k *Kernel) peekAt() (time.Duration, bool) {
	for k.dueIdx < len(k.due) {
		ev := k.due[k.dueIdx]
		if !ev.canceled {
			return ev.at, true
		}
		k.dueIdx++
		k.reap(ev)
	}
	return k.wh.minLive(k)
}

// Step executes the single earliest pending event and returns true, or
// returns false if no live events remain.
func (k *Kernel) Step() bool {
	ev := k.nextLive()
	if ev == nil {
		return false
	}
	k.dueIdx++
	if ev.at < k.now {
		panic(fmt.Sprintf("sim: time went backwards: event at %v, now %v", ev.at, k.now))
	}
	k.now = ev.at
	k.executed++
	if k.limit > 0 && k.executed > k.limit {
		panic(fmt.Sprintf("sim: event limit %d exceeded at t=%v", k.limit, k.now))
	}
	if k.tracer != nil {
		k.tracer.EmitKeyed(ev.seq, k.now, trace.KTimerFire, 0, ev.seq, k.executed, 0)
	}
	// Recycle before the callback: a handle stopped from within its own
	// callback (or re-armed) then correctly reports not-pending.
	fn, afn, arg := ev.fn, ev.afn, ev.arg
	k.reap(ev)
	if afn != nil {
		afn(arg)
	} else {
		fn()
	}
	return true
}

// Run processes events until the queue drains.
func (k *Kernel) Run() {
	for k.Step() {
	}
}

// RunUntil processes events with timestamps <= t, then advances the clock to
// t (if it is in the future). Events scheduled beyond t remain pending.
func (k *Kernel) RunUntil(t time.Duration) {
	for {
		at, ok := k.peekAt()
		if !ok || at > t {
			break
		}
		k.Step()
	}
	if k.now < t {
		k.now = t
	}
}

// RunFor advances the simulation by d of virtual time.
func (k *Kernel) RunFor(d time.Duration) { k.RunUntil(k.now + d) }

// Pending returns the number of live events still queued. Stopped timers are
// excluded immediately, even though their event objects are reaped lazily.
func (k *Kernel) Pending() int { return k.queued - k.stopped }
