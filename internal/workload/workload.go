// Package workload generates the application traffic classes of the paper's
// Table 1 and measures delivered quality of service.
//
// Generators produce the traffic *shapes* the table distinguishes —
// continuous constant-rate media (voice, raw video), bursty variable-rate
// media (compressed video), bulk transfer, interactive keystrokes, and
// request-response transactions — while Meter computes the blackbox QoS
// actually delivered (throughput, per-message latency, inter-arrival jitter,
// loss, misordering), which experiments compare against the ACD that
// configured the session.
package workload

import (
	"encoding/binary"
	"math/bits"
	"sync"
	"time"

	"adaptive/internal/event"
	"adaptive/internal/session"
	"adaptive/internal/unites"
)

// header is the stamp prepended to every generated message: a magic marker
// (so the meter can find message boundaries in segmented streams), send
// timestamp, and message sequence.
const (
	headerLen  = 20
	stampMagic = 0x41445054 // "ADPT"
)

// Stamp builds a message of size bytes (>= headerLen) carrying seq and the
// send time.
func Stamp(seq uint64, now time.Duration, size int) []byte {
	if size < headerLen {
		size = headerLen
	}
	return StampInto(make([]byte, size), seq, now)
}

// StampInto writes the stamp header into b (len(b) >= headerLen) and returns
// b. Bytes past the header keep whatever b held.
func StampInto(b []byte, seq uint64, now time.Duration) []byte {
	binary.BigEndian.PutUint32(b[0:], stampMagic)
	binary.BigEndian.PutUint64(b[4:], uint64(now))
	binary.BigEndian.PutUint64(b[12:], seq)
	return b
}

// stagePools lends the generators their staging buffers, one pool per
// power-of-two size class. A generator needs a message-sized buffer only for
// the length of one Send (which copies synchronously), so it borrows one per
// emission instead of owning one for its whole life: a thousand idle
// generators hold nothing. Only the stamp header is ever written into these
// buffers, so every body byte is zero by construction and the bytes on the
// wire do not depend on which buffer an emission drew. sync.Pool makes the
// loan safe across the goroutines of parallel experiment runs.
var stagePools [bits.UintSize]sync.Pool

// sendStamped sends one message of size bytes (at least a header) carrying seq
// and the send time through out, staged in a borrowed buffer. A refused send
// (the connection closed or migrated under the generator) is not the
// generator's to handle: the meter sees it as loss.
func sendStamped(out Sender, size int, seq uint64, now time.Duration) {
	if size < headerLen {
		size = headerLen
	}
	class := bits.Len(uint(size - 1))
	pool := &stagePools[class]
	buf, _ := pool.Get().(*[]byte)
	if buf == nil {
		b := make([]byte, 1<<class)
		buf = &b
	}
	out.Send(StampInto((*buf)[:size], seq, now))
	pool.Put(buf)
}

// Meter is the receiving-side QoS monitor (blackbox metrics, §4.3). It
// reassembles stamped messages from the segment-granular deliveries the
// transport produces: a segment opening with the stamp magic starts a
// message, the end-of-message marker completes it.
type Meter struct {
	clock interface{ Now() time.Duration }

	Messages   uint64 // completed stamped messages
	Incomplete uint64 // messages whose header or tail went missing
	Bytes      uint64 // all delivered payload bytes (including partials)
	Misordered uint64
	MaxSeq     uint64 // highest sequence observed
	seen       bool
	lastSeq    uint64

	Latency     *unites.Distribution // message completion latency (seconds)
	Jitter      *unites.Distribution // latency variation between messages
	lastTransit time.Duration
	haveTransit bool

	FirstAt, LastAt time.Duration

	open     bool
	openSent time.Duration
	openSeq  uint64
}

// NewMeter returns a meter reading time from clock.
func NewMeter(clock interface{ Now() time.Duration }) *Meter {
	return &Meter{clock: clock, Latency: unites.NewDistribution(), Jitter: unites.NewDistribution()}
}

// OnDeliver consumes one delivered segment (call from the session receiver;
// the meter releases the message).
func (m *Meter) OnDeliver(d session.Delivery) {
	m.Observe(d)
	d.Msg.Release()
}

// Observe records a delivered segment without taking ownership (for callers
// that forward it on).
func (m *Meter) Observe(d session.Delivery) {
	now := m.clock.Now()
	if m.Bytes == 0 {
		m.FirstAt = now
	}
	m.LastAt = now
	m.Bytes += uint64(d.Msg.Len())
	b := d.Msg.Bytes()
	if len(b) >= headerLen && binary.BigEndian.Uint32(b) == stampMagic {
		if m.open {
			m.Incomplete++ // previous message never saw its EOM
		}
		m.open = true
		m.openSent = time.Duration(binary.BigEndian.Uint64(b[4:]))
		m.openSeq = binary.BigEndian.Uint64(b[12:])
	}
	if !d.EOM {
		return
	}
	if !m.open {
		m.Incomplete++ // tail of a message whose head was lost
		return
	}
	m.open = false
	m.Messages++
	transit := now - m.openSent
	m.Latency.Add(transit.Seconds())
	if m.haveTransit {
		dv := (transit - m.lastTransit).Seconds()
		if dv < 0 {
			dv = -dv
		}
		m.Jitter.Add(dv)
	}
	m.lastTransit, m.haveTransit = transit, true
	if m.seen && m.openSeq < m.lastSeq {
		m.Misordered++
	}
	if m.openSeq > m.MaxSeq {
		m.MaxSeq = m.openSeq
	}
	m.lastSeq, m.seen = m.openSeq, true
}

// Lost returns how many generated messages never arrived, given the total
// the generator produced.
func (m *Meter) Lost(generated uint64) uint64 {
	if generated < m.Messages {
		return 0
	}
	return generated - m.Messages
}

// LossRate returns the delivered loss fraction.
func (m *Meter) LossRate(generated uint64) float64 {
	if generated == 0 {
		return 0
	}
	return float64(m.Lost(generated)) / float64(generated)
}

// ThroughputBps returns goodput over the delivery interval.
func (m *Meter) ThroughputBps() float64 {
	dt := (m.LastAt - m.FirstAt).Seconds()
	if dt <= 0 {
		return 0
	}
	return float64(m.Bytes) * 8 / dt
}

// Sender abstracts the session Send entry point so generators drive either
// the internal session type or the public facade connection.
type Sender interface {
	Send(data []byte) error
}

// CBR emits fixed-size messages at a constant rate: voice frames,
// uncompressed video — the "continuous traffic" pattern.
type CBR struct {
	Timers   *event.Manager
	Out      Sender
	MsgSize  int
	Interval time.Duration

	Generated uint64
	ev        *event.Event
}

// Start begins emission until Stop (or for total messages if total > 0).
func (c *CBR) Start(total uint64) {
	clock := c.Timers.Clock()
	c.ev = c.Timers.SchedulePeriodic(0, c.Interval, func() {
		if total > 0 && c.Generated >= total {
			c.ev.Cancel()
			return
		}
		sendStamped(c.Out, c.MsgSize, c.Generated, clock.Now())
		c.Generated++
	})
}

// Stop halts emission.
func (c *CBR) Stop() {
	if c.ev != nil {
		c.ev.Cancel()
	}
}

// VBR emits variable-size frames at a fixed frame rate (compressed video:
// a large intra frame followed by small delta frames — "highly bursty").
type VBR struct {
	Timers    *event.Manager
	Out       Sender
	FrameRate float64 // frames per second
	MeanSize  int     // average frame bytes
	Burst     float64 // peak/mean ratio (intra-frame size multiplier)
	GroupLen  int     // frames per group-of-pictures

	// Tiers is an optional DASH-style bitrate ladder: mean frame sizes in
	// descending quality order. OnBudget (wired to the transport's
	// bandwidth-grant callback) picks the highest tier whose bitrate fits
	// the granted budget and retunes MeanSize live.
	Tiers []int
	// Tier is the current ladder index (meaningful once OnBudget ran).
	Tier int
	// Downshifts / Upshifts count ladder steps away from / back toward
	// quality.
	Downshifts, Upshifts uint64

	Generated uint64
	BytesOut  uint64
	ev        *event.Event
}

// OnBudget is the content-adaptation hook: given a send budget in bits per
// second, step the bitrate ladder to the best tier that fits (the lowest
// tier if none does) and adopt its mean frame size. A VBR without Tiers
// ignores budgets — the transport's pacer still enforces them. Safe to
// call before Start and from grant callbacks while running.
func (v *VBR) OnBudget(budgetBps float64) {
	if len(v.Tiers) == 0 {
		return
	}
	pick := len(v.Tiers) - 1
	for i, sz := range v.Tiers {
		// Tier bitrate must fit inside the budget with a little headroom:
		// the intra-frame burst rides above the mean.
		if float64(sz)*8*v.FrameRate <= budgetBps*0.95 {
			pick = i
			break
		}
	}
	if pick == v.Tier && v.MeanSize == v.Tiers[pick] {
		return
	}
	if pick > v.Tier {
		v.Downshifts++
	} else if pick < v.Tier {
		v.Upshifts++
	}
	v.Tier = pick
	v.MeanSize = v.Tiers[pick]
}

// Start begins emission of total frames (0 = until Stop). Frame sizes are
// derived from MeanSize at each tick, so a codec reacting to a transport
// call-back (dropping an enhancement layer) simply lowers MeanSize live.
//
// Frame deadlines are absolute — start + i/FrameRate computed in float ns
// from the frame index — not a truncated fixed period. A periodic timer at
// Duration(1e9/rate) rounds the period down to whole nanoseconds, and the
// rounding error compounds every frame, so non-divisible rates drift early
// over long soaks (extra frames per simulated minute at high rates).
func (v *VBR) Start(total uint64) {
	if v.GroupLen <= 0 {
		v.GroupLen = 12
	}
	if v.Burst < 1 {
		v.Burst = 1
	}
	clock := v.Timers.Clock()
	start := clock.Now()
	var frames uint64 // frames emitted since this Start; indexes the deadline ladder
	var tick func()
	tick = func() {
		if total > 0 && v.Generated >= total {
			return
		}
		// Size the delta frames so the long-run mean stays MeanSize.
		intra := float64(v.MeanSize) * v.Burst
		delta := (float64(v.MeanSize)*float64(v.GroupLen) - intra) / float64(v.GroupLen-1)
		if delta < headerLen {
			delta = headerLen
		}
		size := int(delta)
		if v.Generated%uint64(v.GroupLen) == 0 {
			size = int(intra)
		}
		sendStamped(v.Out, size, v.Generated, clock.Now())
		v.Generated++
		v.BytesOut += uint64(size)
		frames++
		if total > 0 && v.Generated >= total {
			return
		}
		next := start + time.Duration(float64(frames)*float64(time.Second)/v.FrameRate)
		d := next - clock.Now()
		if d < 0 {
			d = 0
		}
		v.ev.Reset(d)
	}
	// Frame 0 goes out synchronously at start (same virtual instant the old
	// periodic schedule fired it); the one-shot is then re-armed to each
	// absolute deadline, so v.ev exists before any callback touches it.
	v.ev = v.Timers.Schedule(time.Duration(float64(time.Second)/v.FrameRate), tick)
	tick()
}

// Stop halts emission.
func (v *VBR) Stop() {
	if v.ev != nil {
		v.ev.Cancel()
	}
}

// Bulk submits a single large transfer (file transfer). The entire payload
// enters the session queue at once; transport mechanisms pace it out.
type Bulk struct {
	Out       Sender
	TotalSize int
	ChunkSize int // per-message granularity (0 = one message)

	Generated uint64
}

// Start submits the transfer. The clock parameter stamps chunks for latency
// measurement.
func (b *Bulk) Start(clock interface{ Now() time.Duration }) {
	chunk := b.ChunkSize
	if chunk <= 0 {
		chunk = b.TotalSize
	}
	for off := 0; off < b.TotalSize; off += chunk {
		n := chunk
		if off+n > b.TotalSize {
			n = b.TotalSize - off
		}
		sendStamped(b.Out, n, b.Generated, clock.Now())
		b.Generated++
	}
}

// Keystroke emits tiny messages with deterministic pseudo-Poisson gaps
// (TELNET: very low throughput, high burst factor).
type Keystroke struct {
	Timers  *event.Manager
	Out     Sender
	MeanGap time.Duration
	Seed    uint64

	Generated uint64
	ev        *event.Event
}

// Start emits total keystrokes.
func (k *Keystroke) Start(total uint64) {
	clock := k.Timers.Clock()
	state := k.Seed | 1
	var next func()
	next = func() {
		if k.Generated >= total {
			return
		}
		sendStamped(k.Out, headerLen+1, k.Generated, clock.Now())
		k.Generated++
		// xorshift + exponential-ish gap in [0.2, 2.8) of the mean.
		state ^= state << 13
		state ^= state >> 7
		state ^= state << 17
		frac := 0.2 + 2.6*float64(state%1000)/1000
		gap := time.Duration(float64(k.MeanGap) * frac)
		if k.ev == nil {
			k.ev = k.Timers.Schedule(gap, next)
		} else {
			k.ev.Reset(gap)
		}
	}
	next()
}

// Stop halts emission.
func (k *Keystroke) Stop() {
	if k.ev != nil {
		k.ev.Cancel()
	}
}

// ReqResp drives request-response transactions (OLTP, RPC-style file
// service): a request goes out, the next request waits for the matching
// response plus a think time.
type ReqResp struct {
	Timers  *event.Manager
	Out     Sender
	ReqSize int
	Think   time.Duration

	Issued    uint64
	Completed uint64
	RespTimes *unites.Distribution
	issuedAt  time.Duration
	total     uint64
	Done      func() // optional completion callback
	thinkEv   *event.Event
	issueFn   func() // r.issue bound once; method values allocate per use
}

// Start issues total transactions. OnResponse must be wired to the client
// session's receiver.
func (r *ReqResp) Start(total uint64) {
	r.total = total
	if r.RespTimes == nil {
		r.RespTimes = unites.NewDistribution()
	}
	r.issueFn = r.issue
	r.issue()
}

func (r *ReqResp) issue() {
	if r.Issued >= r.total {
		return
	}
	clock := r.Timers.Clock()
	r.issuedAt = clock.Now()
	sendStamped(r.Out, r.ReqSize, r.Issued, clock.Now())
	r.Issued++
}

// OnResponse records a completed transaction and schedules the next request.
func (r *ReqResp) OnResponse(d session.Delivery) {
	d.Msg.Release()
	clock := r.Timers.Clock()
	r.Completed++
	r.RespTimes.Add((clock.Now() - r.issuedAt).Seconds())
	if r.Completed >= r.total {
		if r.Done != nil {
			r.Done()
		}
		return
	}
	if r.thinkEv == nil {
		r.thinkEv = r.Timers.Schedule(r.Think, r.issueFn)
	} else {
		r.thinkEv.Reset(r.Think)
	}
}
