//go:build linux && amd64

// Window-flush timer backend: a timerfd in the runtime poller.
//
// A Go runtime timer cannot honour a sub-millisecond FlushWindow: once every
// P is idle the scheduler sleeps in the netpoller, and epoll_wait's timeout is
// whole milliseconds, so a 200 µs timer fires about 1 ms late
// (runtime/netpoll_epoll.go rounds any wait under 1 ms up to 1 ms). A
// timerfd's expiry is a kernel hrtimer that makes the fd readable, and a
// readable fd wakes the netpoller at once, so the window fires on time.
//
// One goroutine per endpoint parks in a read of the timerfd (through
// os.File, so it parks on the poller like the socket reader; nothing spins)
// and runs onFlushTimer per expiry. Arming is one timerfd_settime, issued
// through the file's RawConn.Control: the runtime holds a reference on the fd
// for the call, so an arm racing Close fails with the file's error instead of
// touching an fd number the kernel may already have handed to someone else.
package udpnet

import (
	"os"
	"syscall"
	"unsafe"
)

// itimerspec mirrors struct itimerspec. A zero interval makes the timer
// one-shot.
type itimerspec struct {
	interval, value syscall.Timespec
}

// windowTimer is the endpoint's flush-window timer.
type windowTimer struct {
	f     *os.File
	rc    syscall.RawConn
	spec  itimerspec
	buf   [8]byte          // expiration count read from the timerfd
	armFn func(fd uintptr) // w.settime bound once: a method value per arm would allocate
	trace func(armed bool) // windowTrace as the endpoint opened
}

// windowTrace, when a test sets it, is called as a datagram opens the window
// (true) and after each window flush (false), for endpoints opened after.
var windowTrace func(armed bool)

// init creates the timerfd and starts the goroutine that flushes on each
// expiry; the provider's reader WaitGroup tracks it, so Provider.Close
// returns only after it exits.
func (w *windowTimer) init(ep *Endpoint) error {
	fd, _, errno := syscall.Syscall(syscall.SYS_TIMERFD_CREATE, 1, // CLOCK_MONOTONIC
		syscall.O_NONBLOCK|syscall.O_CLOEXEC, 0) // TFD_NONBLOCK | TFD_CLOEXEC
	if errno != 0 {
		return os.NewSyscallError("timerfd_create", errno)
	}
	w.f = os.NewFile(fd, "udpnet-flush-window")
	rc, err := w.f.SyscallConn()
	if err != nil {
		w.f.Close()
		return err
	}
	w.rc = rc
	w.spec.value = syscall.NsecToTimespec(int64(ep.flushWin))
	w.armFn = w.settime
	w.trace = windowTrace
	ep.p.readers.Add(1)
	go w.run(ep)
	return nil
}

func (w *windowTimer) run(ep *Endpoint) {
	defer ep.p.readers.Done()
	for {
		if _, err := w.f.Read(w.buf[:]); err != nil {
			return // closed
		}
		ep.onFlushTimer()
		if w.trace != nil {
			w.trace(false)
		}
	}
}

// arm (re)starts the one-shot window; a re-arm replaces the pending expiry
// and discards any unread one. Called under sendMu.
func (w *windowTimer) arm() {
	// Control fails only once the file is closed, and Close closes it under
	// sendMu after marking the endpoint closed, so an arm never sees that.
	_ = w.rc.Control(w.armFn)
	if w.trace != nil {
		w.trace(true)
	}
}

// settime never blocks, so it skips the scheduler's syscall bookkeeping.
func (w *windowTimer) settime(fd uintptr) {
	syscall.RawSyscall6(syscall.SYS_TIMERFD_SETTIME, fd, 0,
		uintptr(unsafe.Pointer(&w.spec)), 0, 0, 0)
}

// close disarms the timer and ends its goroutine.
func (w *windowTimer) close() {
	if w.f != nil {
		w.f.Close()
	}
}
