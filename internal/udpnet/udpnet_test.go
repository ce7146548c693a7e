package udpnet

import (
	"bytes"
	"net"
	"sync/atomic"
	"testing"
	"time"

	"adaptive/internal/event"
	"adaptive/internal/netapi"
)

func TestRawDelivery(t *testing.T) {
	bad := New(WithBindIP("loopback"))
	if _, err := bad.Open(1, 100); err == nil {
		t.Fatal("an endpoint opened on a bind address that is no IP")
	}
	bad.Close()
	// Any loopback address serves; off the default, sockets must follow it.
	const bind = "127.0.0.2"
	p := New(WithBindIP(bind))
	defer p.Close()
	a, err := p.Open(1, 100)
	if err != nil {
		t.Fatal(err)
	}
	defer a.Close()
	if got := a.(*Endpoint).sock.LocalAddr().(*net.UDPAddr).IP.String(); got != bind {
		t.Fatalf("socket bound to %s, want %s", got, bind)
	}
	b, err := p.Open(2, 100)
	if err != nil {
		t.Fatal(err)
	}
	defer b.Close()

	got := make(chan []byte, 1)
	var from netapi.Addr
	p.Wait(func() {
		b.SetReceiver(func(pkt []byte, src netapi.Addr) {
			from = src
			got <- pkt
		})
	})
	if err := a.Send([]byte("over the wire"), b.LocalAddr()); err != nil {
		t.Fatal(err)
	}
	select {
	case pkt := <-got:
		if string(pkt) != "over the wire" {
			t.Fatalf("got %q", pkt)
		}
	case <-time.After(2 * time.Second):
		t.Fatal("datagram never arrived")
	}
	if from != a.LocalAddr() {
		t.Fatalf("source %v, want %v", from, a.LocalAddr())
	}
}

func TestClockAndTimers(t *testing.T) {
	p := New()
	defer p.Close()
	c := p.Clock()
	fired := make(chan time.Duration, 1)
	start := c.Now()
	c.AfterFunc(30*time.Millisecond, func() { fired <- c.Now() })
	select {
	case at := <-fired:
		if at-start < 25*time.Millisecond {
			t.Fatalf("timer fired after %v", at-start)
		}
	case <-time.After(2 * time.Second):
		t.Fatal("timer never fired")
	}
}

func TestTimerStop(t *testing.T) {
	p := New()
	defer p.Close()
	var fired atomic.Bool
	tm := p.Clock().AfterFunc(50*time.Millisecond, func() { fired.Store(true) })
	if !tm.Stop() {
		t.Fatal("Stop returned false on pending timer")
	}
	time.Sleep(100 * time.Millisecond)
	if fired.Load() {
		t.Fatal("stopped timer fired")
	}
}

// TestEventResetRearmsLiveTimer drives an event.Event over the live clock the
// way the RTO is driven: re-armed in place (the provider timer's Reset), it
// must fire once, on the loop, at the re-armed instant — and again after a
// re-arm that follows a firing.
func TestEventResetRearmsLiveTimer(t *testing.T) {
	p := New()
	defer p.Close()
	m := event.NewManager(p.Clock())
	fired := make(chan time.Duration, 4)
	var e *event.Event
	armed := make(chan struct{})
	p.Post(func() {
		e = m.Schedule(time.Hour, func() { fired <- p.Clock().Now() })
		e.Reset(30 * time.Millisecond)
		close(armed)
	})
	<-armed
	start := p.Clock().Now()
	wait := func(what string) {
		t.Helper()
		select {
		case at := <-fired:
			if at-start < 25*time.Millisecond {
				t.Fatalf("%s: fired after %v", what, at-start)
			}
		case <-time.After(2 * time.Second):
			t.Fatalf("%s: never fired", what)
		}
	}
	wait("re-armed before firing")
	start = p.Clock().Now()
	p.Post(func() { e.Reset(30 * time.Millisecond) })
	wait("re-armed after firing")
	select {
	case <-fired:
		t.Fatal("fired more than once per arm")
	case <-time.After(80 * time.Millisecond):
	}
}

// TestEventResetDropsQueuedExpiry re-arms a live event whose expiry is already
// queued on the loop: the loop is held inside one closure past the first arm's
// instant, so its expiry waits in the queue while Reset runs. That stale
// expiry must not count as the re-armed firing (an RTO reset by an ack would
// fire spuriously), and the re-armed one must fire exactly once.
func TestEventResetDropsQueuedExpiry(t *testing.T) {
	p := New()
	defer p.Close()
	m := event.NewManager(p.Clock())
	fired := make(chan time.Duration, 4)
	var reset time.Duration
	p.Wait(func() {
		e := m.Schedule(time.Millisecond, func() { fired <- p.Clock().Now() })
		time.Sleep(20 * time.Millisecond)
		e.Reset(50 * time.Millisecond)
		reset = p.Clock().Now()
	})
	select {
	case at := <-fired:
		if at-reset < 45*time.Millisecond {
			t.Fatalf("fired %v after a 50ms Reset", at-reset)
		}
	case <-time.After(2 * time.Second):
		t.Fatal("re-armed event never fired")
	}
	select {
	case at := <-fired:
		t.Fatalf("fired again %v after the Reset", at-reset)
	case <-time.After(80 * time.Millisecond):
	}
}

func TestSoftwareMulticast(t *testing.T) {
	p := New()
	defer p.Close()
	src, _ := p.Open(1, 100)
	defer src.Close()
	var eps []netapi.Endpoint
	counts := make([]atomic.Int32, 3)
	for i := 0; i < 3; i++ {
		ep, err := p.Open(netapi.HostID(2+i), 100)
		if err != nil {
			t.Fatal(err)
		}
		defer ep.Close()
		i := i
		p.Wait(func() {
			ep.SetReceiver(func(pkt []byte, _ netapi.Addr) { counts[i].Add(1) })
		})
		eps = append(eps, ep)
	}
	group := netapi.MulticastBit | 7
	p.RegisterGroup(group, 2, 3, 4)
	if err := src.Send([]byte("mc"), netapi.Addr{Host: group, Port: 100}); err != nil {
		t.Fatal(err)
	}
	deadline := time.Now().Add(2 * time.Second)
	for {
		all := true
		for i := range counts {
			if counts[i].Load() != 1 {
				all = false
			}
		}
		if all {
			break
		}
		if time.Now().After(deadline) {
			t.Fatalf("fanout incomplete: %v %v %v", counts[0].Load(), counts[1].Load(), counts[2].Load())
		}
		time.Sleep(5 * time.Millisecond)
	}
}

func TestUnknownHostErrors(t *testing.T) {
	p := New()
	defer p.Close()
	a, _ := p.Open(1, 100)
	defer a.Close()
	if err := a.Send([]byte("x"), netapi.Addr{Host: 99, Port: 100}); err == nil {
		t.Fatal("send to unknown host succeeded")
	}
	if err := a.Send([]byte("x"), netapi.Addr{Host: netapi.MulticastBit | 5, Port: 1}); err == nil {
		t.Fatal("send to unknown group succeeded")
	}
}

func TestDuplicateHostRejected(t *testing.T) {
	p := New()
	defer p.Close()
	a, _ := p.Open(1, 100)
	defer a.Close()
	if _, err := p.Open(1, 200); err == nil {
		t.Fatal("second endpoint for one host accepted")
	}
}

func TestSendAfterCloseFails(t *testing.T) {
	p := New()
	defer p.Close()
	a, _ := p.Open(1, 100)
	b, _ := p.Open(2, 100)
	defer b.Close()
	a.Close()
	if err := a.Send([]byte("x"), b.LocalAddr()); err == nil {
		t.Fatal("send on closed endpoint succeeded")
	}
	// Host 1 is free again.
	if _, err := p.Open(1, 100); err != nil {
		t.Fatalf("reopen after close: %v", err)
	}
}

func TestFullStackOverUDP(t *testing.T) {
	// The complete ADAPTIVE node stack over real sockets lives in the
	// root package test (TestNodeOverUDP); here we verify the provider
	// satisfies the contract the stack needs: framing preserves source
	// addressing for large packets.
	p := New()
	defer p.Close()
	a, _ := p.Open(1, 7700)
	defer a.Close()
	b, _ := p.Open(2, 7700)
	defer b.Close()
	payload := bytes.Repeat([]byte{0xAB}, 1400)
	got := make(chan int, 1)
	p.Wait(func() {
		b.SetReceiver(func(pkt []byte, src netapi.Addr) { got <- len(pkt) })
	})
	a.Send(payload, b.LocalAddr())
	select {
	case n := <-got:
		if n != 1400 {
			t.Fatalf("length %d", n)
		}
	case <-time.After(2 * time.Second):
		t.Fatal("no delivery")
	}
}
