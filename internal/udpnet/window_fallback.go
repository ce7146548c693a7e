//go:build !(linux && amd64)

// Portable window-flush timer: a Go runtime timer (time.AfterFunc). Once the
// process idles into the netpoller a runtime timer fires on a millisecond
// grid, so here a sub-millisecond FlushWindow flushes up to about 1 ms late;
// window_linux.go avoids that with a timerfd. Behavior is otherwise identical.
package udpnet

import "time"

// windowTimer is the endpoint's flush-window timer.
type windowTimer struct {
	t     *time.Timer
	win   time.Duration
	flush func()
}

func (w *windowTimer) init(ep *Endpoint) error {
	w.win, w.flush = ep.flushWin, ep.onFlushTimer
	return nil
}

// arm (re)starts the window. Called under sendMu.
func (w *windowTimer) arm() {
	if w.t == nil {
		w.t = time.AfterFunc(w.win, w.flush)
	} else {
		w.t.Reset(w.win)
	}
}

func (w *windowTimer) close() {
	if w.t != nil {
		w.t.Stop()
	}
}
