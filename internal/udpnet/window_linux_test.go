//go:build linux && amd64

package udpnet

import (
	"os"
	"runtime"
	"slices"
	"syscall"
	"testing"
	"time"
	"unsafe"

	"adaptive/internal/netapi"
)

// TestWindowFlushIsOnTime sends single frames from an otherwise idle
// provider with a 200 µs window, one at a time, and times each from Send to
// the receive upcall. Only the window flush can send a lone frame, and an idle
// process sleeps in the netpoller, where a runtime timer would be rounded up
// to a whole millisecond (≈ 1.1–1.3 ms here); the timerfd keeps the median
// under 500 µs.
func TestWindowFlushIsOnTime(t *testing.T) {
	p := New(WithBatch(32), WithFlushWindow(200*time.Microsecond))
	defer p.Close()
	a, err := p.Open(1, 10)
	if err != nil {
		t.Fatal(err)
	}
	b, err := p.Open(2, 20)
	if err != nil {
		t.Fatal(err)
	}
	arrived := make(chan time.Time, 1)
	b.SetReceiver(func([]byte, netapi.Addr) { arrived <- time.Now() })

	const sends = 50
	took := make([]time.Duration, 0, sends)
	for i := 0; i < sends; i++ {
		time.Sleep(2 * time.Millisecond) // let every P go idle
		start := time.Now()
		if err := a.Send([]byte{byte(i)}, netapi.Addr{Host: 2, Port: 20}); err != nil {
			t.Fatal(err)
		}
		select {
		case at := <-arrived:
			took = append(took, at.Sub(start))
		case <-time.After(5 * time.Second):
			t.Fatalf("frame %d never arrived", i)
		}
	}
	slices.Sort(took)
	med := took[sends/2]
	t.Logf("send → upcall over a 200 µs window: min %v, median %v, max %v", took[0], med, took[sends-1])
	if med >= 500*time.Microsecond {
		t.Fatalf("median send → upcall %v, want < 500µs: the window flush fires late", med)
	}
	if bc := p.BatchCounters(); bc.FlushesWindow < sends {
		t.Fatalf("%d window flushes for %d lone frames", bc.FlushesWindow, sends)
	}
}

// TestOpenCloseCyclesLeaveNothing opens a provider with two windowed
// endpoints, sends, and closes them, 100 times: every socket, timerfd and
// goroutine (loop, readers, window timers) must be gone afterwards.
func TestOpenCloseCyclesLeaveNothing(t *testing.T) {
	fds := func() int {
		ents, err := os.ReadDir("/proc/self/fd")
		if err != nil {
			t.Skip("no /proc/self/fd")
		}
		return len(ents)
	}
	goroutines, files := runtime.NumGoroutine(), fds()
	for i := 0; i < 100; i++ {
		p := New(WithBatch(8), WithFlushWindow(200*time.Microsecond))
		a, err := p.Open(1, 10)
		if err != nil {
			t.Fatal(err)
		}
		b, err := p.Open(2, 20)
		if err != nil {
			t.Fatal(err)
		}
		got := make(chan struct{}, 4)
		b.SetReceiver(func([]byte, netapi.Addr) { got <- struct{}{} })
		for k := 0; k < 3; k++ {
			if err := a.Send([]byte{byte(k)}, netapi.Addr{Host: 2, Port: 20}); err != nil {
				t.Fatal(err)
			}
		}
		<-got
		if i%2 == 0 {
			a.Close() // endpoint first, then the provider; else the provider alone
		}
		p.Close()
	}
	waitFor(t, 5*time.Second, func() bool {
		return runtime.NumGoroutine() <= goroutines && fds() <= files
	}, "goroutines and fds back to their starting counts")
}

// TestWindowArmAfterCloseSparesRecycledFd checks the guard on arming: once
// the timer's file is closed the kernel may hand its fd number to anyone, and
// an arm must not reach that fd. (Endpoints never arm after Close — both hold
// sendMu — so the guard is defense in depth, tested here directly.)
func TestWindowArmAfterCloseSparesRecycledFd(t *testing.T) {
	p := New(WithBatch(8), WithFlushWindow(time.Hour))
	defer p.Close()
	a, err := p.Open(1, 10)
	if err != nil {
		t.Fatal(err)
	}
	w := &a.(*Endpoint).win
	var old uintptr
	if err := w.rc.Control(func(fd uintptr) { old = fd }); err != nil {
		t.Fatal(err)
	}
	w.close()

	// Take the lowest free fd numbers until the old one comes back.
	var fresh uintptr
	var opened []uintptr
	defer func() {
		for _, fd := range opened {
			syscall.Close(int(fd))
		}
	}()
	for len(opened) < 64 {
		fd, _, errno := syscall.Syscall(syscall.SYS_TIMERFD_CREATE, 1, syscall.O_CLOEXEC, 0)
		if errno != 0 {
			t.Fatal(errno)
		}
		opened = append(opened, fd)
		if fd == old {
			fresh = fd
			break
		}
	}
	if fresh == 0 {
		t.Skip("the closed timer's fd number was not reused")
	}
	w.arm()
	var cur itimerspec
	if _, _, errno := syscall.Syscall(syscall.SYS_TIMERFD_GETTIME, fresh, uintptr(unsafe.Pointer(&cur)), 0); errno != 0 {
		t.Fatal(errno)
	}
	if cur.value != (syscall.Timespec{}) {
		t.Fatalf("an arm after close armed fd %d, now someone else's: %+v", fresh, cur)
	}
}
