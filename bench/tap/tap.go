// Package tap is the benchmark's boundary tracer: a netapi.Provider
// decorator (in the shape of internal/impair) that sits between an
// adaptive.Node and its real provider (udpnet or netsim) and records a span
// around every crossing of that boundary, plus a Recorder the benchmark's own
// wrappers use for the spans above the stack (app.send, app.deliver, ...).
//
// Nothing in the program knows the tap exists: it times calls into the
// program's public seams from outside. Everything above a provider runs on
// that provider's single loop (or kernel) goroutine, so spans nest on one
// stack and a span's self time is its duration minus its children's.
//
// The packet path (Endpoint.Send and the receive upcalls) allocates nothing.
// The clock wrapper allocates one closure per AfterFunc: a stale Timer.Stop
// after the callback fired must stay harmless, so they cannot be recycled.
package tap

import (
	"encoding/binary"
	"math/bits"
	"time"

	"adaptive/internal/netapi"
)

// Name identifies a span kind. The strings are the span names of the
// benchmark's glossary (bench/README.md); in-program spans added later must
// reproduce them.
type Name uint8

const (
	ProviderSend   Name = iota // netapi.Endpoint.Send, timed at the tap
	StackRx                    // one Receiver/BatchReceiver upcall into the stack
	StackTimer                 // one Clock.AfterFunc callback
	AppSend                    // Conn.Send
	AppDial                    // Node.Dial / Node.DialSpec
	AppReconfigure             // Conn.Reconfigure
	AppClose                   // Conn.Close
	AppDeliver                 // the application's OnReceive/OnDelivery callback
	WorkloadTick               // one generator timer tick
	SimRun                     // one Kernel.RunUntil slice (root span of sim workloads)
	numNames
)

var nameStrings = [numNames]string{
	"provider.send", "stack.rx", "stack.timer", "app.send", "app.dial",
	"app.reconfigure", "app.close", "app.deliver", "workload.tick", "sim.run",
}

func (n Name) String() string { return nameStrings[n] }

// Names lists every span name in declaration order.
func Names() []Name {
	out := make([]Name, numNames)
	for i := range out {
		out[i] = Name(i)
	}
	return out
}

// Span is one recorded interval. Times are nanoseconds since the recorder
// was created; Parent is the ID of the enclosing span, or -1 at the root.
type Span struct {
	ID     int64  `json:"id"`
	Parent int64  `json:"parent"`
	Name   string `json:"name"`
	Conn   uint32 `json:"conn"`
	Start  int64  `json:"start_ns"`
	End    int64  `json:"end_ns"`
	N      uint32 `json:"n"` // packets in the upcall, or 1
}

// Agg is the running aggregate of one span name.
type Agg struct {
	Count uint64 // spans
	N     uint64 // packets/messages carried (Σ Span.N)
	Total int64  // Σ duration, ns
	Self  int64  // Σ duration minus children, ns
	hist  [histBuckets]uint32
}

// histBuckets: 8 sub-buckets per power of two of nanoseconds (≈9 %
// resolution), enough to report a span's median and tail without keeping
// every duration.
const (
	histSub     = 8
	histBuckets = 64 * histSub
)

func histIndex(ns int64) int {
	if ns < histSub {
		if ns < 0 {
			ns = 0
		}
		return int(ns)
	}
	msb := bits.Len64(uint64(ns)) - 1 // ≥ 3
	sub := int(uint64(ns)>>(uint(msb)-3)) & (histSub - 1)
	return (msb-2)*histSub + sub
}

func histValue(i int) int64 {
	if i < histSub {
		return int64(i)
	}
	msb := i/histSub + 2
	sub := i % histSub
	return (int64(histSub+sub) << (uint(msb) - 3))
}

// Quantile returns the q-quantile of the span durations (bucket lower
// bound), or 0 without samples.
func (a *Agg) Quantile(q float64) int64 {
	if a.Count == 0 {
		return 0
	}
	var total uint64
	for _, c := range a.hist {
		total += uint64(c)
	}
	want := uint64(q * float64(total))
	var seen uint64
	for i, c := range a.hist {
		seen += uint64(c)
		if seen > want {
			return histValue(i)
		}
	}
	return histValue(histBuckets - 1)
}

// Frame is one entry of the frame log: what crossed the provider boundary.
type Frame struct {
	Type uint8  // wire.Type
	Ck   uint8  // wire.ChecksumKind
	Size uint16 // bytes handed to Endpoint.Send
}

// FrameStats counts frames of one PDU type.
type FrameStats struct {
	Count, Bytes uint64
}

type open struct {
	name  Name
	conn  uint32
	id    int64
	start int64
	child int64
}

type stamp struct {
	at   int64
	size int32
}

// ring is a fixed FIFO of send stamps for one destination host.
type ring struct {
	buf        []stamp
	head, tail uint32 // tail-head = queued
}

const ringSize = 1 << 14 // frames in flight toward one host; a power of two

// Recorder holds everything one traced run records. All methods must run on
// the provider's loop (or kernel) goroutine; read results after the provider
// is closed, or from inside Provider.Wait.
type Recorder struct {
	base   time.Time
	stack  []open
	nextID int64
	agg    [numNames]Agg
	root   int64 // Σ duration of root spans
	spans  []Span
	maxRaw int
	bad    uint64 // End without Begin, or negative self time

	// Tree sampling: a tree is a span with no parent but sim.run. With
	// sample > 1 only about one tree in sample is recorded; inside a
	// skipped tree Begin and End only count depth.
	sample, rng    uint64
	skip           int
	trees, sampled uint64

	frames   []Frame
	byType   [16]FrameStats
	transit  bool
	rings    map[netapi.HostID]*ring
	transits []int64
	lost     uint64 // transit stamps that found no matching frame
}

// Options sizes a Recorder.
type Options struct {
	// RawSpans bounds the spans kept verbatim for the span file (the
	// aggregates always cover every span).
	RawSpans int
	// Frames bounds the frame log kept for the layer rungs' replay.
	Frames int
	// SampleTrees > 1 records about one span tree in that many (see
	// Aggs.Estimate); the simulator workloads need it to keep the tap's own
	// cost a small share of a 1.5 µs packet.
	SampleTrees int
	// Transit matches each frame's send return to its receive upcall. Only
	// meaningful on a wall-clock provider that neither drops nor reorders
	// (udpnet loopback); leave it off over netsim.
	Transit bool
}

// NewRecorder returns an empty recorder.
func NewRecorder(o Options) *Recorder {
	r := &Recorder{
		base:    time.Now(),
		stack:   make([]open, 0, 32),
		spans:   make([]Span, 0, o.RawSpans),
		maxRaw:  o.RawSpans,
		frames:  make([]Frame, 0, o.Frames),
		transit: o.Transit,
		sample:  uint64(o.SampleTrees),
		rng:     0x9e3779b97f4a7c15,
	}
	if o.Transit {
		r.rings = make(map[netapi.HostID]*ring)
		r.transits = make([]int64, 0, 1<<21)
	}
	return r
}

func (r *Recorder) now() int64 { return int64(time.Since(r.base)) }

// Begin opens a span; every Begin needs one End on the same goroutine.
func (r *Recorder) Begin(name Name, conn uint32) {
	if r.skip > 0 {
		r.skip++
		return
	}
	if top := len(r.stack); name != SimRun && (top == 0 || top == 1 && r.stack[0].name == SimRun) {
		r.trees++
		if r.sample > 1 {
			// xorshift64: which trees are recorded must not beat with any
			// period in the traffic.
			r.rng ^= r.rng << 13
			r.rng ^= r.rng >> 7
			r.rng ^= r.rng << 17
			if r.rng%r.sample != 0 {
				r.skip = 1
				return
			}
		}
		r.sampled++
	}
	id := r.nextID
	r.nextID++
	r.stack = append(r.stack, open{name: name, conn: conn, id: id, start: r.now()})
}

// End closes the innermost open span; n is the number of packets or messages
// it carried.
func (r *Recorder) End(n uint32) {
	if r.skip > 0 {
		r.skip--
		return
	}
	now := r.now()
	top := len(r.stack) - 1
	if top < 0 {
		r.bad++
		return
	}
	o := r.stack[top]
	r.stack = r.stack[:top]
	dur := now - o.start
	self := dur - o.child
	if self < 0 {
		r.bad++
		self = 0
	}
	a := &r.agg[o.name]
	a.Count++
	a.N += uint64(n)
	a.Total += dur
	a.Self += self
	a.hist[histIndex(dur)]++
	parent := int64(-1)
	if top > 0 {
		r.stack[top-1].child += dur
		parent = r.stack[top-1].id
	} else {
		r.root += dur
	}
	if len(r.spans) < r.maxRaw {
		r.spans = append(r.spans, Span{ID: o.id, Parent: parent, Name: o.name.String(),
			Conn: o.conn, Start: o.start, End: now, N: n})
	}
}

// Aggs is the aggregate of every span name, indexed by Name, plus how many
// span trees were opened and how many of them were recorded.
type Aggs struct {
	By             [numNames]Agg
	Trees, Sampled uint64
}

// Aggs copies the current aggregates. Taken between spans (no span open),
// two copies bracket a window: see Since.
func (r *Recorder) Aggs() *Aggs {
	return &Aggs{By: r.agg, Trees: r.trees, Sampled: r.sampled}
}

// Since returns the aggregates accumulated after base was taken.
func (a *Aggs) Since(base *Aggs) *Aggs {
	d := &Aggs{Trees: a.Trees - base.Trees, Sampled: a.Sampled - base.Sampled}
	for i := range a.By {
		x, y := &a.By[i], &base.By[i]
		d.By[i] = Agg{Count: x.Count - y.Count, N: x.N - y.N, Total: x.Total - y.Total, Self: x.Self - y.Self}
		for j := range x.hist {
			d.By[i].hist[j] = x.hist[j] - y.hist[j]
		}
	}
	return d
}

// Estimate scales the recorded trees up to all trees: counts and times of
// every span inside a tree are multiplied by Trees/Sampled, and sim.run
// (always recorded, never part of a tree) keeps its total and gives up the
// unrecorded trees' time from its self time. Without sampling it returns a
// copy. Histograms stay as recorded: quantiles need no scaling.
func (a *Aggs) Estimate() *Aggs {
	e := *a
	if a.Sampled == 0 || a.Sampled == a.Trees {
		return &e
	}
	f := float64(a.Trees) / float64(a.Sampled)
	for i := range e.By {
		if Name(i) == SimRun {
			continue
		}
		x := &e.By[i]
		x.Count = uint64(float64(x.Count) * f)
		x.N = uint64(float64(x.N) * f)
		x.Total = int64(float64(x.Total) * f)
		x.Self = int64(float64(x.Self) * f)
	}
	run := &e.By[SimRun]
	run.Self = run.Total - int64(float64(run.Total-run.Self)*f)
	return &e
}

// SelfTotal sums self time over all span names.
func (a *Aggs) SelfTotal() int64 {
	var t int64
	for i := range a.By {
		t += a.By[i].Self
	}
	return t
}

// RootTotal is the summed duration of all root spans; with balanced spans it
// equals the sum of every span's self time.
func (r *Recorder) RootTotal() int64 { return r.root }

// Malformed counts Ends without a Begin and spans with negative self time.
func (r *Recorder) Malformed() uint64 { return r.bad }

// OpenSpans is the current nesting depth (0 when balanced).
func (r *Recorder) OpenSpans() int { return len(r.stack) + r.skip }

// Spans returns the retained raw spans, in End order.
func (r *Recorder) Spans() []Span { return r.spans }

// Frames returns the retained prefix of the frame log.
func (r *Recorder) Frames() []Frame { return r.frames }

// FrameStats returns the per-PDU-type frame counts, indexed by wire.Type.
func (r *Recorder) FrameStats() [16]FrameStats { return r.byType }

// Transits returns the matched send-return → receive-upcall intervals in ns
// and how many receive upcalls found no matching stamp.
func (r *Recorder) Transits() (samples []int64, unmatched uint64) {
	return r.transits, r.lost
}

// ResetWindow forgets the frame statistics, transit samples and raw spans
// gathered so far (set-up and warm-up), so that what is kept describes the
// measurement window. The frame log and the aggregates carry on.
func (r *Recorder) ResetWindow() {
	r.byType = [16]FrameStats{}
	r.transits, r.lost = r.transits[:0], 0
	r.spans = r.spans[:0]
}

// The tap reads three fields of the encoded PDU header without decoding it:
// byte 0 version|type, byte 1 flags with the checksum kind in the top two
// bits, bytes 8..11 ConnID. The benchmark checks these offsets against
// wire.EncodeTo at start-up (checkWireLayout in bench/check.go), because a
// layout change would otherwise misfile data and ack frames silently.
const (
	offType   = 0
	offFlags  = 1
	offConnID = 8
)

// HeaderFields returns the PDU type, checksum kind and connection ID the tap
// reads from an encoded packet (zeros where the packet is too short).
func HeaderFields(pkt []byte) (typ, ck uint8, conn uint32) {
	if len(pkt) > offFlags {
		typ, ck = pkt[offType]&0x0f, pkt[offFlags]>>6
	}
	return typ, ck, connOf(pkt)
}

func connOf(pkt []byte) uint32 {
	if len(pkt) < offConnID+4 {
		return 0
	}
	return binary.BigEndian.Uint32(pkt[offConnID:])
}

func (r *Recorder) logFrame(pkt []byte) {
	if len(pkt) <= offFlags {
		return
	}
	typ, ck, _ := HeaderFields(pkt)
	r.byType[typ].Count++
	r.byType[typ].Bytes += uint64(len(pkt))
	if len(r.frames) < cap(r.frames) {
		r.frames = append(r.frames, Frame{Type: typ, Ck: ck, Size: uint16(len(pkt))})
	}
}

func (r *Recorder) ringFor(h netapi.HostID) *ring {
	g := r.rings[h]
	if g == nil {
		g = &ring{buf: make([]stamp, ringSize)}
		r.rings[h] = g
	}
	return g
}

func (r *Recorder) stampSend(dst netapi.HostID, size int) {
	g := r.ringFor(dst)
	if g.tail-g.head == ringSize {
		g.head++ // overrun: the oldest stamp is lost, and counted at match time
	}
	g.buf[g.tail&(ringSize-1)] = stamp{at: r.now(), size: int32(size)}
	g.tail++
}

func (r *Recorder) matchRecv(host netapi.HostID, size int, at int64) {
	g := r.rings[host]
	if g == nil {
		r.lost++
		return
	}
	// Loopback keeps order, so the head is the frame unless something was
	// dropped; skip ahead to the first stamp of this size.
	for g.head != g.tail {
		s := g.buf[g.head&(ringSize-1)]
		g.head++
		if int(s.size) == size {
			if len(r.transits) < cap(r.transits) {
				r.transits = append(r.transits, at-s.at)
			}
			return
		}
		r.lost++
	}
	r.lost++
}

// --- the provider decorator ---

// Provider wraps an inner provider; every endpoint it opens and the clock it
// hands out record into rec.
type Provider struct {
	inner netapi.Provider
	rec   *Recorder
	clock netapi.Clock
}

var _ netapi.Provider = (*Provider)(nil)

// Wrap taps inner.
func Wrap(inner netapi.Provider, rec *Recorder) *Provider {
	return &Provider{inner: inner, rec: rec, clock: Clock(inner.Clock(), rec, StackTimer)}
}

// Clock returns the inner clock with every AfterFunc callback wrapped in a
// stack.timer span.
func (p *Provider) Clock() netapi.Clock { return p.clock }

// Open opens an endpoint on the inner provider and returns it tapped.
func (p *Provider) Open(host netapi.HostID, port uint16) (netapi.Endpoint, error) {
	ep, err := p.inner.Open(host, port)
	if err != nil {
		return nil, err
	}
	return &endpoint{Endpoint: ep, rec: p.rec, host: ep.LocalAddr().Host}, nil
}

// endpoint passes LocalAddr/PathMTU/Close through and taps Send and the
// receive upcalls.
type endpoint struct {
	netapi.Endpoint
	rec   *Recorder
	host  netapi.HostID
	recv  netapi.Receiver
	batch netapi.BatchReceiver
}

func (e *endpoint) Send(pkt []byte, dst netapi.Addr) error {
	r := e.rec
	r.logFrame(pkt)
	r.Begin(ProviderSend, connOf(pkt))
	err := e.Endpoint.Send(pkt, dst)
	r.End(1)
	if r.transit {
		r.stampSend(dst.Host, len(pkt))
	}
	return err
}

func (e *endpoint) SetReceiver(fn netapi.Receiver) {
	e.recv = fn
	e.Endpoint.SetReceiver(e.onPacket)
}

func (e *endpoint) onPacket(pkt []byte, from netapi.Addr) {
	r := e.rec
	if r.transit {
		r.matchRecv(e.host, len(pkt), r.now())
	}
	r.Begin(StackRx, connOf(pkt))
	e.recv(pkt, from)
	r.End(1)
}

// SetBatchReceiver taps the batched upcall when the inner endpoint batches;
// over a non-batching provider it is a no-op, as in internal/impair.
func (e *endpoint) SetBatchReceiver(fn netapi.BatchReceiver) {
	if be, ok := e.Endpoint.(netapi.BatchEndpoint); ok {
		e.batch = fn
		be.SetBatchReceiver(e.onBatch)
	}
}

func (e *endpoint) onBatch(batch []netapi.Packet) {
	r := e.rec
	var conn uint32
	if len(batch) > 0 {
		conn = connOf(batch[0].Data)
	}
	if r.transit {
		at := r.now()
		for i := range batch {
			r.matchRecv(e.host, len(batch[i].Data), at)
		}
	}
	r.Begin(StackRx, conn)
	e.batch(batch)
	r.End(uint32(len(batch)))
}

// --- the clock decorator ---

type clock struct {
	inner netapi.Clock
	rec   *Recorder
	name  Name
}

// Clock wraps inner so every AfterFunc callback runs inside a span of the
// given name. The benchmark uses it twice: under the stack (stack.timer) and
// under its own generators (workload.tick). The wrapper deliberately hides
// any kernel fast path the inner clock offers, so timers of a traced run all
// cross AfterFunc.
func Clock(inner netapi.Clock, rec *Recorder, name Name) netapi.Clock {
	return &clock{inner: inner, rec: rec, name: name}
}

func (c *clock) Now() time.Duration { return c.inner.Now() }

func (c *clock) AfterFunc(d time.Duration, fn func()) netapi.Timer {
	rec, name := c.rec, c.name
	return c.inner.AfterFunc(d, func() {
		rec.Begin(name, 0)
		fn()
		rec.End(1)
	})
}
