package main

import (
	"bytes"
	"encoding/binary"
	"fmt"
	"math/rand"
	"sync/atomic"
	"time"

	"adaptive"
	"adaptive/bench/tap"
	"adaptive/internal/netapi"
	"adaptive/internal/udpnet"
	"adaptive/internal/unites"
)

// The live workloads cross the host's loopback interface through real UDP
// sockets — not a real link. Both nodes share one udpnet provider and so one
// event-loop goroutine; the driver goroutine only ever blocks on channels.

const (
	livePort   = 9000
	liveWarmup = time.Second
	liveSlice  = 500 * time.Millisecond
)

type liveRig struct {
	prov   *udpnet.Provider
	rec    *tap.Recorder
	a, b   *adaptive.Node
	repo   *adaptive.MetricsRepository
	conn   *adaptive.Conn
	connID uint32
	// establishUs is app.dial start → NoteEstablished, wall µs.
	establishUs float64
}

// newLiveRig builds provider and nodes, installs accept on the server, dials
// through MANTTS and waits for establishment.
func newLiveRig(seed int64, rec *tap.Recorder, accept func(*adaptive.Conn)) (*liveRig, error) {
	r := &liveRig{rec: rec, repo: unites.NewRepository()}
	r.prov = udpnet.New(udpnet.WithBatch(32), udpnet.WithFlushWindow(200*time.Microsecond),
		udpnet.WithSocketBuffers(4<<20, 4<<20), udpnet.WithQueueLen(1<<14))
	var p netapi.Provider = r.prov
	if rec != nil {
		p = tap.Wrap(r.prov, rec)
	}
	mk := func(host adaptive.HostID, name string, salt int64) (*adaptive.Node, error) {
		return adaptive.NewNode(adaptive.WithProvider(p), adaptive.WithHost(host),
			adaptive.WithSeed(seed+salt), adaptive.WithName(name),
			adaptive.WithObservability(adaptive.Observe{Repository: r.repo}))
	}
	var err error
	if r.a, err = mk(1, "live-a", 0); err != nil {
		r.prov.Close()
		return nil, err
	}
	if r.b, err = mk(2, "live-b", 1); err != nil {
		r.prov.Close()
		return nil, err
	}
	established := make(chan struct{}, 1)
	var dialErr error
	t0 := time.Now()
	r.prov.Wait(func() {
		if dialErr = r.b.Listen(livePort, nil, accept); dialErr != nil {
			return
		}
		r.a.Subscribe(func(_ uint32, n adaptive.Notification) {
			if n.Kind == adaptive.NoteEstablished {
				select {
				case established <- struct{}{}:
				default:
				}
			}
		})
		span(rec, tap.AppDial, 0, func() {
			r.conn, dialErr = r.a.Dial(&adaptive.ACD{
				Participants: []adaptive.Addr{r.b.Addr()},
				RemotePort:   livePort,
				Quant:        adaptive.QuantQoS{AvgThroughputBps: 100e6},
				Qual:         adaptive.QualQoS{Ordered: true},
			}, nil)
		})
		if dialErr == nil {
			r.connID = r.conn.ConnID()
		}
	})
	if dialErr != nil {
		r.close()
		return nil, fmt.Errorf("live dial: %w", dialErr)
	}
	select {
	case <-established:
	case <-time.After(5 * time.Second):
		r.close()
		return nil, fmt.Errorf("live dial: not established within 5s")
	}
	r.establishUs = float64(time.Since(t0)) / float64(time.Microsecond)
	return r, nil
}

func (r *liveRig) close() {
	r.prov.Close()
	r.a.Close()
	r.b.Close()
}

func (r *liveRig) snapshot() snapshot {
	var s snapshot
	r.prov.Wait(func() { s = takeSnapshot(r.repo, r.a, r.b) })
	s.udp = r.prov.BatchCounters()
	s.udpDroppedPosts = r.prov.DroppedPosts()
	return s
}

// liveCounters finishes the counter metrics both live workloads share.
func (r *liveRig) liveCounters(m *measurement, s0, s1 snapshot) {
	pkts := s1.udp.FramesIn - s0.udp.FramesIn
	m.counters = counterMetrics(s0, s1, pkts)
	m.counters["conn.establish_wall_us"] = r.establishUs
	if d := m.counters["udpnet.drops"]; d > 0 {
		m.fail(uint64(d), "udpnet dropped %v frames (DroppedPosts+SkippedCopies+SendErrors)", d)
	}
}

// ---- live_bulk ----

const (
	bulkMsg    = 256 << 10 // one Conn.Send
	bulkQueued = 4         // messages kept outstanding: 1 MiB
	bulkSrc    = bulkMsg * bulkQueued
)

type bulkRig struct {
	*liveRig
	src, exp []byte // sender's source and the receiver's expectation of it

	// Loop-goroutine state.
	rxOff     int // offset of the next expected byte within exp
	rxMsg     uint64
	mismatch  uint64
	segs      uint64      // delivered data PDUs
	sentAt    []time.Time // by message index
	latUs     []float64   // Send call → last byte delivered, completed messages
	sentMsgs  uint64
	stopped   bool
	delivered atomic.Uint64 // payload bytes
	doneMsgs  atomic.Uint64
	progress  chan struct{}
}

func setupLiveBulk(seed int64, rec *tap.Recorder, scale float64) (rig, error) {
	b := &bulkRig{src: make([]byte, bulkSrc), progress: make(chan struct{}, 1)}
	rand.New(rand.NewSource(seed ^ 0x62756c6b)).Read(b.src)
	b.exp = append([]byte(nil), b.src...)
	lr, err := newLiveRig(seed, rec, func(c *adaptive.Conn) {
		c.OnReceive(func(data []byte, eom bool) {
			span(rec, tap.AppDeliver, c.ConnID(), func() { b.onData(data, eom) })
		})
	})
	if err != nil {
		return nil, err
	}
	b.liveRig = lr
	b.run(scaled(liveWarmup, scale), nil)
	return b, nil
}

// onData checks one delivered segment against the expected stream: the
// right bytes, exactly once, in order, never straddling a message boundary.
func (b *bulkRig) onData(data []byte, eom bool) {
	msgOff := b.rxOff % bulkMsg
	if msgOff == 0 {
		binary.BigEndian.PutUint64(b.exp[b.rxOff:], b.rxMsg)
	}
	end := msgOff + len(data)
	if end > bulkMsg || eom != (end == bulkMsg) || !bytes.Equal(data, b.exp[b.rxOff:b.rxOff+len(data)]) {
		b.mismatch++
		return
	}
	b.rxOff = (b.rxOff + len(data)) % bulkSrc
	b.segs++
	b.delivered.Add(uint64(len(data)))
	if end == bulkMsg {
		b.latUs = append(b.latUs, float64(time.Since(b.sentAt[b.rxMsg]))/float64(time.Microsecond))
		b.rxMsg++
		b.doneMsgs.Add(1)
		select {
		case b.progress <- struct{}{}:
		default:
		}
	}
}

// topUp runs on the loop: refill the connection's queue to bulkQueued
// messages.
func (b *bulkRig) topUp() {
	for !b.stopped && b.sentMsgs-b.doneMsgs.Load() < bulkQueued {
		chunk := b.src[int(b.sentMsgs%bulkQueued)*bulkMsg:][:bulkMsg]
		binary.BigEndian.PutUint64(chunk, b.sentMsgs)
		b.sentAt = append(b.sentAt, time.Now())
		b.sentMsgs++
		span(b.rec, tap.AppSend, b.connID, func() {
			if err := b.conn.Send(chunk); err != nil {
				b.mismatch++
			}
		})
	}
}

// run keeps the queue topped up for d, cutting slices into sl when set, and
// reports how often the driver blocked and topped up.
func (b *bulkRig) run(d time.Duration, sl *slicer) (blocked, topUps uint64) {
	deadline := time.Now().Add(d)
	nextCut := time.Now().Add(liveSlice)
	tick := time.NewTicker(50 * time.Millisecond)
	defer tick.Stop()
	for {
		b.prov.Wait(b.topUp)
		topUps++
		now := time.Now()
		if sl != nil && !now.Before(nextCut) {
			sl.cut(b.prov.BatchCounters().FramesIn, b.delivered.Load())
			nextCut = nextCut.Add(liveSlice)
		}
		if !now.Before(deadline) {
			if sl != nil {
				sl.finish(liveSlice, b.prov.BatchCounters().FramesIn, b.delivered.Load())
			}
			return
		}
		blocked++
		select {
		case <-b.progress:
		case <-tick.C:
		}
	}
}

func (b *bulkRig) measure(d time.Duration) (*measurement, error) {
	m := &measurement{}
	var lat0 int
	var msgs0, segs0 uint64
	var mark *traceMark
	b.prov.Wait(func() { lat0, msgs0, segs0, mark = len(b.latUs), b.sentMsgs, b.segs, markTrace(b.rec) })
	s0 := b.snapshot()
	sl := newSlicer(s0.udp.FramesIn, b.delivered.Load())
	m.blockedWaits, m.topUps = b.run(d, sl)
	m.peakRSSMiB = sl.peakRSS
	s1 := b.snapshot()
	b.prov.Wait(func() {
		if m.trace = mark.close(s1.udp.FramesIn - s0.udp.FramesIn); m.trace != nil {
			m.trace.msgs = b.sentMsgs - msgs0
			m.trace.dataByRung = map[string]float64{rungSRSeq: float64(b.segs - segs0)}
		}
	})

	// Drain what is still queued, then compare totals.
	b.prov.Wait(func() { b.stopped = true })
	for wait := time.Now().Add(2 * time.Second); b.doneMsgs.Load() < b.sentMsgs && time.Now().Before(wait); {
		select {
		case <-b.progress:
		case <-time.After(10 * time.Millisecond):
		}
	}
	var stats adaptive.Stats
	b.prov.Wait(func() {
		stats = b.conn.Stats()
		m.latUs = append(m.latUs, b.latUs[lat0:]...)
		m.attempted = b.sentMsgs - msgs0
		if b.mismatch > 0 {
			m.fail(b.mismatch, "live_bulk: %d delivered segments differ from the sent stream", b.mismatch)
		}
		if done := b.doneMsgs.Load(); done != b.sentMsgs {
			m.fail(b.sentMsgs-done, "live_bulk: %d of %d messages undelivered after drain", b.sentMsgs-done, b.sentMsgs)
		}
	})
	m.slices = sl.out
	m.goodputMbps = m.wallGoodputMbps()
	m.liveLatency()
	b.liveCounters(m, s0, s1)
	m.counters["conn.retransmissions_total"] = float64(stats.Retransmissions)
	return m, nil
}

// ---- live_rr ----

const rrSize = 64

type rrRig struct {
	*liveRig
	req []byte

	// Loop-goroutine state.
	seq       uint64
	t0        time.Time
	rttUs     []float64
	bad       uint64
	stopped   bool
	completed atomic.Uint64
	payload   atomic.Uint64
}

func setupLiveRR(seed int64, rec *tap.Recorder, scale float64) (rig, error) {
	r := &rrRig{req: make([]byte, rrSize)}
	rand.New(rand.NewSource(seed ^ 0x7272)).Read(r.req)
	lr, err := newLiveRig(seed, rec, func(c *adaptive.Conn) {
		// Echo server: Send copies synchronously, so the delivered slice
		// goes straight back.
		c.OnReceive(func(data []byte, _ bool) {
			span(rec, tap.AppDeliver, c.ConnID(), func() {
				span(rec, tap.AppSend, c.ConnID(), func() { c.Send(data) })
			})
		})
	})
	if err != nil {
		return nil, err
	}
	r.liveRig = lr
	r.prov.Wait(func() {
		r.conn.OnReceive(func(data []byte, _ bool) {
			span(rec, tap.AppDeliver, r.connID, func() { r.onResponse(data) })
		})
		r.issue()
	})
	r.watch(scaled(liveWarmup, scale), nil)
	return r, nil
}

// issue sends the next request (loop goroutine).
func (r *rrRig) issue() {
	if r.stopped {
		return
	}
	r.seq++
	binary.BigEndian.PutUint64(r.req, r.seq)
	r.t0 = time.Now()
	span(r.rec, tap.AppSend, r.connID, func() {
		if err := r.conn.Send(r.req); err != nil {
			r.bad++
		}
	})
}

// onResponse checks the echo and closes the loop: the next request leaves
// from inside the response callback, zero think time.
func (r *rrRig) onResponse(data []byte) {
	if len(data) != rrSize || binary.BigEndian.Uint64(data) != r.seq || !bytes.Equal(data[8:], r.req[8:]) {
		r.bad++ // stale or damaged echo; the watchdog re-issues
		return
	}
	r.rttUs = append(r.rttUs, float64(time.Since(r.t0))/float64(time.Microsecond))
	r.completed.Add(1)
	r.payload.Add(2 * rrSize)
	r.issue()
}

// watch blocks the driver for d while the loop runs the closed loop, cutting
// slices and re-issuing a request that went unanswered for 1 s.
func (r *rrRig) watch(d time.Duration, sl *slicer) (blocked, stalls uint64) {
	deadline := time.Now().Add(d)
	nextCut := time.Now().Add(liveSlice)
	last, lastAt := r.completed.Load(), time.Now()
	tick := time.NewTicker(50 * time.Millisecond)
	defer tick.Stop()
	for now := range tick.C {
		blocked++
		if c := r.completed.Load(); c != last {
			last, lastAt = c, now
		} else if now.Sub(lastAt) > time.Second {
			stalls++
			lastAt = now
			r.prov.Wait(r.issue)
		}
		if sl != nil && !now.Before(nextCut) {
			sl.cut(r.prov.BatchCounters().FramesIn, r.payload.Load())
			nextCut = nextCut.Add(liveSlice)
		}
		if !now.Before(deadline) {
			if sl != nil {
				sl.finish(liveSlice, r.prov.BatchCounters().FramesIn, r.payload.Load())
			}
			break
		}
	}
	return
}

func (r *rrRig) measure(d time.Duration) (*measurement, error) {
	m := &measurement{}
	var n0 int
	var bad0 uint64
	var mark *traceMark
	r.prov.Wait(func() { n0, bad0, mark = len(r.rttUs), r.bad, markTrace(r.rec) })
	s0 := r.snapshot()
	sl := newSlicer(s0.udp.FramesIn, r.payload.Load())
	t0 := time.Now()
	var stalls uint64
	m.blockedWaits, stalls = r.watch(d, sl)
	wall := time.Since(t0)
	m.peakRSSMiB = sl.peakRSS
	s1 := r.snapshot()
	r.prov.Wait(func() {
		r.stopped = true
		m.latUs = append(m.latUs, r.rttUs[n0:]...)
		if m.trace = mark.close(s1.udp.FramesIn - s0.udp.FramesIn); m.trace != nil {
			m.trace.msgs = 2 * uint64(len(m.latUs))
			m.trace.dataByRung = map[string]float64{rungSRSeq: float64(m.trace.msgs)}
		}
		if bad := r.bad - bad0; bad > 0 {
			m.fail(bad, "live_rr: %d responses did not echo their request", bad)
		}
	})
	if stalls > 0 {
		m.fail(stalls, "live_rr: %d requests unanswered after 1s", stalls)
	}
	m.attempted = uint64(len(m.latUs)) + m.failed
	m.slices = sl.out
	m.goodputMbps = m.wallGoodputMbps()
	m.liveLatency()
	r.liveCounters(m, s0, s1)
	m.counters["txn_per_s"] = float64(len(m.latUs)) / wall.Seconds()
	// Ten samples beyond p99.9 need 10 000 round trips, 23 s at today's rate;
	// with at least two beyond it the figure is printed as an indication.
	m.counters["rtt_p999_us"] = newTiming(m.latUs).at(0.999, 2)
	return m, nil
}

func scaled(d time.Duration, scale float64) time.Duration {
	return time.Duration(float64(d) * scale)
}
