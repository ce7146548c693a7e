package workload

import (
	"testing"
	"time"

	"adaptive/internal/message"
	"adaptive/internal/session"
)

// discard is a Sender that counts messages and drops them — the cheapest
// possible downstream, so AllocsPerRun sees only the generator's own work.
type discard struct{ n int }

func (d *discard) Send(data []byte) error { d.n++; return nil }

// TestCBRNextPacketZeroAlloc pins the steady-state generator tick — timer
// fire, periodic re-arm, borrow a staging buffer, StampInto it, Send, give it
// back — at zero heap allocations. The first ticks allocate the pooled staging
// buffer and kernel event blocks; after the warm-up window every tick must be
// free.
func TestCBRNextPacketZeroAlloc(t *testing.T) {
	k, timers := rig()
	out := &discard{}
	g := &CBR{Timers: timers, Out: out, MsgSize: 160, Interval: time.Millisecond}
	g.Start(0)
	defer g.Stop()

	now := 50 * time.Millisecond
	k.RunUntil(now) // warm: staging pool, event free lists, wheel buckets
	before := out.n
	allocs := testing.AllocsPerRun(200, func() {
		now += time.Millisecond
		k.RunUntil(now)
	})
	if allocs != 0 {
		t.Fatalf("CBR tick: %v allocs/op, want 0", allocs)
	}
	if out.n == before {
		t.Fatal("no packets generated — measurement exercised nothing")
	}
}

// TestMeterObserveZeroAlloc pins the receive-side metering path: one
// Observe per delivered segment folds latency and jitter samples into
// distributions whose windows already cover them, without allocating.
func TestMeterObserveZeroAlloc(t *testing.T) {
	k, timers := rig()
	_ = k
	m := NewMeter(timers.Clock())
	payload := Stamp(0, 0, 160)
	msg := message.NewFromBytes(payload)
	defer msg.Release()
	d := session.Delivery{Msg: msg, EOM: true}

	m.Observe(d) // warm: first-sample bookkeeping
	var seq uint64 = 1
	allocs := testing.AllocsPerRun(1000, func() {
		StampInto(payload, seq, 0)
		seq++
		m.Observe(d)
	})
	if allocs != 0 {
		t.Fatalf("Meter.Observe: %v allocs/op, want 0", allocs)
	}
	if m.Messages < 1000 {
		t.Fatalf("only %d messages metered — measurement exercised nothing", m.Messages)
	}
}
