// Package mediasync implements temporal synchronization of related media
// streams — the requirement Table 1 and §2.1B attach to tele-conferencing
// ("temporal synchronization") and §4.1 assigns to MANTTS ("coordinates
// multiple related communication sessions, e.g., determining the scheduling
// priorities of synchronized multimedia streams").
//
// The model is classic playout-point synchronization: every media unit
// carries its capture timestamp; the synchronizer holds each unit until
// capture time + playout delay on the shared clock, so units captured
// together play together regardless of how much transit skew their streams
// accumulated. Units arriving after their playout point are released
// immediately and counted late — the application chooses the delay budget
// to trade interactivity against late arrivals.
package mediasync

import (
	"container/heap"
	"fmt"
	"time"

	"adaptive/internal/event"
	"adaptive/internal/message"
)

// Unit is one synchronized media unit ready for playout.
type Unit struct {
	Stream   int
	Captured time.Duration
	Msg      *message.Message
}

// StreamStats counts one stream's synchronization behaviour.
type StreamStats struct {
	Received uint64
	Played   uint64
	Late     uint64
	// MaxTransit tracks the worst capture-to-arrival delay observed
	// (useful for choosing the playout budget).
	MaxTransit time.Duration
}

type pendingUnit struct {
	unit   Unit
	playAt time.Duration
	seq    uint64 // FIFO tie-break
	index  int
}

type playoutHeap []*pendingUnit

func (h playoutHeap) Len() int { return len(h) }
func (h playoutHeap) Less(i, j int) bool {
	if h[i].playAt != h[j].playAt {
		return h[i].playAt < h[j].playAt
	}
	return h[i].seq < h[j].seq
}
func (h playoutHeap) Swap(i, j int) {
	h[i], h[j] = h[j], h[i]
	h[i].index = i
	h[j].index = j
}
func (h *playoutHeap) Push(x any) {
	u := x.(*pendingUnit)
	u.index = len(*h)
	*h = append(*h, u)
}
func (h *playoutHeap) Pop() any {
	old := *h
	n := len(old)
	u := old[n-1]
	old[n-1] = nil
	*h = old[:n-1]
	return u
}

// Synchronizer aligns streams on a shared playout clock.
type Synchronizer struct {
	timers *event.Manager
	delay  time.Duration
	out    func(Unit)

	pending playoutHeap
	timer   *event.Event
	seq     uint64
	stats   map[int]*StreamStats
}

// New creates a synchronizer releasing units through out at capture time +
// delay.
func New(timers *event.Manager, delay time.Duration, out func(Unit)) *Synchronizer {
	if out == nil {
		panic("mediasync: nil output")
	}
	return &Synchronizer{
		timers: timers,
		delay:  delay,
		out:    out,
		stats:  make(map[int]*StreamStats),
	}
}

// SetDelay re-tunes the playout budget for future units (an
// application-specific response to NoteAppLoss / rising jitter).
func (s *Synchronizer) SetDelay(d time.Duration) { s.delay = d }

// Stats returns a copy of one stream's counters.
func (s *Synchronizer) Stats(stream int) StreamStats {
	if st, ok := s.stats[stream]; ok {
		return *st
	}
	return StreamStats{}
}

// Pending returns the number of units awaiting playout.
func (s *Synchronizer) Pending() int { return len(s.pending) }

// Submit accepts one media unit (ownership of msg transfers to the
// synchronizer until playout hands it to the output).
func (s *Synchronizer) Submit(stream int, captured time.Duration, msg *message.Message) {
	st, ok := s.stats[stream]
	if !ok {
		st = &StreamStats{}
		s.stats[stream] = st
	}
	now := s.timers.Clock().Now()
	st.Received++
	if transit := now - captured; transit > st.MaxTransit {
		st.MaxTransit = transit
	}
	playAt := captured + s.delay
	u := Unit{Stream: stream, Captured: captured, Msg: msg}
	if playAt <= now {
		st.Late++
		st.Played++
		s.out(u)
		return
	}
	s.seq++
	heap.Push(&s.pending, &pendingUnit{unit: u, playAt: playAt, seq: s.seq})
	s.arm()
}

// arm schedules the playout timer for the earliest pending unit.
func (s *Synchronizer) arm() {
	if len(s.pending) == 0 {
		return
	}
	next := s.pending[0].playAt
	if s.timer != nil {
		s.timer.Cancel()
	}
	now := s.timers.Clock().Now()
	s.timer = s.timers.Schedule(next-now, s.release)
}

// release plays out every unit whose time has come.
func (s *Synchronizer) release() {
	now := s.timers.Clock().Now()
	for len(s.pending) > 0 && s.pending[0].playAt <= now {
		u := heap.Pop(&s.pending).(*pendingUnit)
		s.stats[u.unit.Stream].Played++
		s.out(u.unit)
	}
	s.arm()
}

// Flush releases everything immediately (teardown).
func (s *Synchronizer) Flush() {
	if s.timer != nil {
		s.timer.Cancel()
	}
	for len(s.pending) > 0 {
		u := heap.Pop(&s.pending).(*pendingUnit)
		s.stats[u.unit.Stream].Played++
		s.out(u.unit)
	}
}

// String summarizes synchronizer state.
func (s *Synchronizer) String() string {
	return fmt.Sprintf("sync{delay=%v pending=%d streams=%d}", s.delay, len(s.pending), len(s.stats))
}
