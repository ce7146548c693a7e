package udpnet

import (
	"bytes"
	"net"
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
			got <- append([]byte(nil), pkt...)
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

func TestDuplicateHostRejected(t *testing.T) {
	p := New()
	defer p.Close()
	a, _ := p.Open(1, 100)
	defer a.Close()
	if _, err := p.Open(1, 200); err == nil {
		t.Fatal("second endpoint for one host accepted")
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
