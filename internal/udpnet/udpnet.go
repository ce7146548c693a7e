// Package udpnet is the real-network provider: the same netapi interfaces
// the simulator implements, backed by UDP sockets and the wall clock, so an
// unmodified ADAPTIVE stack runs over loopback or a real LAN.
//
// Concurrency model: all protocol code for one provider runs on a single
// event loop goroutine. Socket readers and timer expirations post closures
// into the loop, preserving the no-locking discipline mechanisms are written
// against. State is split into three classes:
//
//   - loop-confined: the receive upcall always runs on the loop goroutine,
//     so protocol state behind it needs no locks.
//   - atomic: lifecycle flags (Provider/Endpoint closed), the receiver
//     slots, the per-endpoint Sent/Received/Dropped counters, and the
//     RCU-style host/group registry snapshot the send path reads without
//     taking any lock.
//   - mutex-guarded: the authoritative host and group registries (mutation
//     only — Open/Close/RegisterHost/RegisterGroup republish an immutable
//     snapshot), and each endpoint's open send datagram.
//
// The datapath mirrors netsim's interrupt-coalescing design on the real
// socket (DESIGN.md §5.18). Frame trains — many protocol frames in one wire
// datagram — do the batching, so every socket call moves one datagram:
//
//   - Receive: the reader reads one datagram at a time into its one buffer,
//     copies it once into a pooled slab (the shared tier: the reader runs off
//     the loop), and posts ONE closure per datagram into the bounded loop
//     queue. The datagram's frames — at most maxBatch — ride that closure as
//     views into the slab; the upcall side delivers them through the
//     optional netapi.BatchReceiver in a single call, then frees the one slab
//     back to the shared tier, where the reader takes the next.
//   - Send: with FlushWindow > 0, each endpoint keeps one open datagram, and
//     Send lays its frame straight into it as a train record. The datagram is
//     written when a frame for another host arrives, when it holds BatchSize
//     frames (size flush), when FlushWindow elapses since it opened (window
//     flush; on linux/amd64 a timerfd in the runtime poller, so a
//     sub-millisecond window fires on time — see window_linux.go), when a
//     receive upcall on the endpoint returns and the datagram holds no data
//     frame (reply flush: the acks and NAKs a batch produced leave when it
//     ends), and on Flush and Close. FlushWindow == 0 keeps the per-packet
//     write path (one write per Send, no trains), the A/B baseline the
//     equivalence tests compare against, exactly like netsim's
//     DeliverPerPacket.
//
// A reader that finds the loop queue full drops the datagram and counts it
// (congestion loss, exactly the netapi.Endpoint.Send contract) instead of
// blocking the socket drain; when the queue is already full the per-packet
// copies are skipped too (counted in SkippedCopies). A datagram the kernel
// drops on a full socket receive buffer never reaches the reader; on linux
// KernelDrops reads those from the socket (sockdrops_linux.go). The flush
// window and the kernel drop count are the package's two platform splits.
// Shutdown is ordered:
// Provider.Close first closes every endpoint (writing its open datagram),
// waits for all reader goroutines to exit, then stops the loop — so no
// packet upcall can run after Close returns.
package udpnet

import (
	"errors"
	"fmt"
	"net"
	"net/netip"
	"sync"
	"sync/atomic"
	"time"

	"adaptive/internal/message"
	"adaptive/internal/netapi"
	"adaptive/internal/wire"
)

// maxPacket bounds received datagram size.
const maxPacket = 64 << 10

// frameOverhead is the provider frame header: srcHost uint32 | srcPort
// uint16, prepended to every datagram so one OS socket serves one netapi
// host with full source addressing.
const frameOverhead = 6

// maxBatch caps BatchSize, the frames per size flush: the most frames a
// udpnet sender packs into one datagram, and so the most the reader takes
// from one.
const maxBatch = 64

// Frame-train coalescing: consecutive same-destination frames ride one wire
// datagram, so the socket call and the kernel's per-datagram cost (the
// dominant cost on the loopback path) are paid once per train instead of once
// per frame. Train layout:
//
//	[0..3]  0xFF 0xFF 0xFF 0xFF   marker (trainMarker: an impossible
//	                              source host — unicast sources never have
//	                              the multicast bit set, so a single
//	                              frame's header can't collide)
//	[4..5]  count  uint16 BE
//	[6..11] srcHost uint32 BE | srcPort uint16 BE (shared by all frames)
//	then count × { uint16 BE length | payload }   (appendRecord)
//
// Single frames — and everything in FlushWindow=0 mode — keep the exact
// pre-train wire format (6-byte header + payload), so per-packet mode is
// bitwise identical to the pre-batching provider on the wire. A train holds up
// to maxTrainBytes: loopback carries 60 KiB datagrams natively; a path with a
// real MTU would IP-fragment them, and wants FlushWindow 0.
const (
	trainMarker   = 0xFF                  // each of the first four bytes
	trainHdr      = 4 + 2 + frameOverhead // marker + count + src header
	trainRecHdr   = 2                     // per-frame length prefix
	maxTrainBytes = 60 << 10              // stay under the reader's maxPacket buffer
)

// DefaultBatchSize is the frames per size flush when Config.BatchSize is 0.
const DefaultBatchSize = 32

// Config carries the provider's tunables; zero values pick the defaults
// noted on each field.
type Config struct {
	// BindIP is the local address endpoints bind ("127.0.0.1" default).
	// Use a real interface address (or "0.0.0.0") to serve a LAN.
	BindIP string
	// QueueLen bounds the event-loop queue (default 4096). Packets that
	// arrive while the queue is full are dropped and counted.
	QueueLen int
	// ReadBuffer / WriteBuffer set the socket buffer sizes in bytes
	// (0 keeps the OS default). High-speed transfers want several MB.
	ReadBuffer, WriteBuffer int
	// BatchSize is the frames per size flush (default DefaultBatchSize,
	// capped at 64). 1 degenerates to one write per Send — the per-packet
	// baseline.
	BatchSize int
	// FlushWindow enables send-side batching: frames accumulate, as one
	// train, in the endpoint's open datagram, which is written when BatchSize
	// frames are in it (size flush), when this window elapses since it
	// opened (window flush), or as soon as a frame for another host arrives,
	// whichever is first. Only data frames (wire.TData and wire.TParity
	// PDUs) are sure to wait for one of those: when a receive upcall on the
	// endpoint returns and the open datagram holds no data frame — only
	// acks, NAKs or control — it is written at once (reply flush), so the
	// replies a receive batch produced leave when the batch ends. A control
	// frame sent with no receive upcall after it, such as a delayed-ack
	// timer's ack on a quiet link, still waits for the window. 0 (the
	// default) keeps today's per-packet behavior: every Send is one socket
	// write, and a Send error is returned from that very call. With
	// batching, a write error surfaces on the Send that wrote the datagram —
	// its frame filled it (size flush), or was bound for another host or did
	// not fit, and then that frame is not sent either — or on Flush; it is
	// counted (SendErrors) when a window or reply flush hits it, and Close
	// drops it.
	FlushWindow time.Duration
}

// Option configures a Provider.
type Option func(*Config)

// WithBindIP sets the local IP endpoints bind (default 127.0.0.1).
func WithBindIP(ip string) Option { return func(c *Config) { c.BindIP = ip } }

// WithQueueLen bounds the event-loop queue.
func WithQueueLen(n int) Option { return func(c *Config) { c.QueueLen = n } }

// WithSocketBuffers sets the per-socket read/write buffer sizes in bytes.
func WithSocketBuffers(read, write int) Option {
	return func(c *Config) { c.ReadBuffer, c.WriteBuffer = read, write }
}

// WithBatch sets the frames per size flush.
func WithBatch(n int) Option { return func(c *Config) { c.BatchSize = n } }

// WithFlushWindow enables send-side batching with the given flush window
// (0 keeps the per-packet write path).
func WithFlushWindow(d time.Duration) Option { return func(c *Config) { c.FlushWindow = d } }

// hostAddr is a registry entry: the OS-level address of a host's socket, in
// the form WriteToUDPAddrPort takes without conversion or allocation.
// Sockets are opened and registrations resolved as udp4 only, and a udp4
// socket refuses a 4-in-6 address, so the address is stored unmapped.
func hostAddr(ua *net.UDPAddr) netip.AddrPort {
	ap := ua.AddrPort()
	return netip.AddrPortFrom(ap.Addr().Unmap(), ap.Port())
}

// registry is the immutable host/group snapshot the send path reads. The
// maps are never mutated after publication: mutators rebuild and atomically
// swap the whole snapshot (RCU), so sendTo resolves destinations without
// taking the provider mutex per packet.
type registry struct {
	hosts  map[netapi.HostID]netip.AddrPort
	groups map[netapi.HostID][]netapi.HostID
}

var emptyRegistry = &registry{}

// Provider maps netapi.HostID values onto UDP addresses.
type Provider struct {
	mu     sync.Mutex
	hosts  map[netapi.HostID]netip.AddrPort // authoritative; mutate under mu
	eps    map[netapi.HostID]*Endpoint      // locally opened endpoints
	groups map[netapi.HostID][]netapi.HostID

	// reg is the published read-mostly snapshot of hosts+groups.
	reg atomic.Pointer[registry]

	cfg     Config
	loop    chan func()
	quit    chan struct{} // closed by Close after readers drain
	done    chan struct{} // closed when the loop goroutine exits
	closed  atomic.Bool
	readers sync.WaitGroup
	clock   clock

	// cache is the loop goroutine's free lists (see LoopCache): touched only
	// by closures running on the loop.
	cache wire.Cache

	// droppedPosts counts loop-queue overflow drops provider-wide (the
	// per-endpoint Dropped counters attribute the datagrams to a
	// receiver; this counts shed posts, i.e. whole batches).
	droppedPosts atomic.Uint64

	// Batch datapath counters (see BatchCounters).
	datagramsIn   atomic.Uint64 // wire datagrams read from sockets, provider-wide
	datagramsOut  atomic.Uint64 // wire datagrams written to sockets, provider-wide
	framesIn      atomic.Uint64 // protocol frames received (trains expanded)
	framesOut     atomic.Uint64 // protocol frames sent (trains counted per frame)
	batchesOut    atomic.Uint64 // batch flush writes
	flushesSize   atomic.Uint64 // flushes triggered by a datagram holding BatchSize frames
	flushesWindow atomic.Uint64 // flushes triggered by the flush window
	flushesReply  atomic.Uint64 // flushes of a control-only datagram at the end of a receive upcall
	skippedCopies atomic.Uint64 // rx copies skipped (no receiver / full queue)
	fanoutErrs    atomic.Uint64 // per-member multicast send failures
	sendErrs      atomic.Uint64 // socket write errors on flush paths
	trainsOut     atomic.Uint64 // coalesced train datagrams written
	trainFrames   atomic.Uint64 // frames that rode in trains
	rehomedFrames atomic.Uint64 // frames redirected at write time to a re-registered peer

	// closedDrops is the kernel drop count of every closed endpoint's
	// socket as last read at its Close, so KernelDrops never goes down.
	// Guarded by mu.
	closedDrops uint64
}

// New returns a provider with a running event loop.
func New(opts ...Option) *Provider {
	cfg := Config{BindIP: "127.0.0.1", QueueLen: 4096, BatchSize: DefaultBatchSize}
	for _, fn := range opts {
		fn(&cfg)
	}
	if cfg.BindIP == "" {
		cfg.BindIP = "127.0.0.1"
	}
	if cfg.QueueLen <= 0 {
		cfg.QueueLen = 4096
	}
	if cfg.BatchSize <= 0 {
		cfg.BatchSize = DefaultBatchSize
	}
	if cfg.BatchSize > maxBatch {
		cfg.BatchSize = maxBatch
	}
	if cfg.FlushWindow < 0 {
		cfg.FlushWindow = 0
	}
	p := &Provider{
		hosts:  make(map[netapi.HostID]netip.AddrPort),
		eps:    make(map[netapi.HostID]*Endpoint),
		groups: make(map[netapi.HostID][]netapi.HostID),
		cfg:    cfg,
		loop:   make(chan func(), cfg.QueueLen),
		quit:   make(chan struct{}),
		done:   make(chan struct{}),
	}
	p.reg.Store(emptyRegistry)
	p.clock = clock{p: p, epoch: time.Now()}
	go p.run()
	return p
}

// publishLocked rebuilds the immutable registry snapshot from the
// authoritative maps. Call with p.mu held after any mutation.
func (p *Provider) publishLocked() {
	r := &registry{
		hosts:  make(map[netapi.HostID]netip.AddrPort, len(p.hosts)),
		groups: make(map[netapi.HostID][]netapi.HostID, len(p.groups)),
	}
	for h, a := range p.hosts {
		r.hosts[h] = a
	}
	for g, m := range p.groups {
		r.groups[g] = m
	}
	p.reg.Store(r)
}

func (p *Provider) run() {
	for {
		select {
		case fn := <-p.loop:
			fn()
		case <-p.quit:
			// Drain whatever was queued before shutdown, then stop.
			for {
				select {
				case fn := <-p.loop:
					fn()
				default:
					close(p.done)
					return
				}
			}
		}
	}
}

// Post schedules fn onto the provider's event loop (applications use this to
// interact with connections safely). It reports whether the closure was
// accepted; after Close it is a no-op returning false — there is no hidden
// recover, so real panics in protocol code propagate and crash loudly.
func (p *Provider) Post(fn func()) bool {
	if p.closed.Load() {
		return false
	}
	select {
	case p.loop <- fn:
		return true
	case <-p.quit:
		return false
	}
}

// tryPost is the packet path: never blocks; a full queue drops.
func (p *Provider) tryPost(fn func()) bool {
	if p.closed.Load() {
		return false
	}
	select {
	case p.loop <- fn:
		return true
	default:
		p.droppedPosts.Add(1)
		return false
	}
}

// loopFull reports whether the event-loop queue has no room right now. The
// reader consults it before copying a batch: when the queue is full the
// batch would be shed anyway, so the copies are skipped (and counted).
func (p *Provider) loopFull() bool { return len(p.loop) == cap(p.loop) }

// Wait runs fn on the loop and blocks until it completes (or the provider
// shuts down first, in which case fn may not run).
func (p *Provider) Wait(fn func()) {
	ch := make(chan struct{})
	if !p.Post(func() { fn(); close(ch) }) {
		return
	}
	select {
	case <-ch:
	case <-p.done:
	}
}

// DroppedPosts reports how many packet-batch upcalls the bounded loop queue
// shed.
func (p *Provider) DroppedPosts() uint64 { return p.droppedPosts.Load() }

// BatchCounters is a snapshot of the batched-datapath accounting.
type BatchCounters struct {
	// DatagramsIn / DatagramsOut are provider-wide wire-datagram totals;
	// FramesIn / FramesOut are protocol frames (a train datagram carries
	// many frames, so FramesOut / DatagramsOut is the send coalescing
	// factor).
	DatagramsIn, DatagramsOut uint64
	FramesIn, FramesOut       uint64
	// BatchesIn is how many receive batches arrived; each read is one
	// datagram, so it equals DatagramsIn. BatchesOut counts send writes of
	// the open datagram.
	BatchesIn, BatchesOut uint64
	// FlushesSize / FlushesWindow / FlushesReply count three of the
	// triggers behind BatchesOut: the open datagram reached BatchSize frames,
	// the FlushWindow timer fired, or a receive upcall returned while it held
	// no data frame. The rest of BatchesOut is writes on a destination
	// change, on a frame that did not fit, and on Flush and Close.
	FlushesSize, FlushesWindow, FlushesReply uint64
	// SkippedCopies counts received datagrams dropped before their
	// payload copy: no receiver installed, or the loop queue already
	// full.
	SkippedCopies uint64
	// KernelDrops counts datagrams the kernel dropped on the endpoints'
	// sockets before the reader saw them — chiefly a full receive buffer
	// (see WithSocketBuffers). It is read from each socket when the
	// counters are snapshotted (SO_MEMINFO; linux only, 0 elsewhere), and a
	// closed endpoint's last count stays in it. Over loopback, every
	// datagram with a frame in it that reached an endpoint's socket is
	// either in DatagramsIn or here.
	KernelDrops uint64
	// FanoutErrors counts per-member multicast send failures (the send
	// continues to remaining members; see Endpoint.Send).
	FanoutErrors uint64
	// SendErrors counts socket write errors on the batched flush path.
	SendErrors uint64
	// TrainsOut / TrainFrames count frame-train coalescing: TrainFrames
	// frames left the provider inside TrainsOut wire datagrams
	// (TrainFrames / TrainsOut is the average train depth).
	TrainsOut, TrainFrames uint64
}

// BatchCounters snapshots the batched-datapath accounting.
func (p *Provider) BatchCounters() BatchCounters {
	return BatchCounters{
		DatagramsIn:   p.datagramsIn.Load(),
		DatagramsOut:  p.datagramsOut.Load(),
		FramesIn:      p.framesIn.Load(),
		FramesOut:     p.framesOut.Load(),
		BatchesIn:     p.datagramsIn.Load(),
		BatchesOut:    p.batchesOut.Load(),
		FlushesSize:   p.flushesSize.Load(),
		FlushesWindow: p.flushesWindow.Load(),
		FlushesReply:  p.flushesReply.Load(),
		SkippedCopies: p.skippedCopies.Load(),
		KernelDrops:   p.kernelDrops(),
		FanoutErrors:  p.fanoutErrs.Load(),
		SendErrors:    p.sendErrs.Load(),
		TrainsOut:     p.trainsOut.Load(),
		TrainFrames:   p.trainFrames.Load(),
	}
}

// MetricCounters returns the provider's counters as read-at-scrape-time
// closures keyed by dotted metric names, in the shape the observability
// plane's Observe.Counters field consumes — pass the result (or a merge of
// several providers') to adaptive.WithObservability to publish the batch
// datapath on /metrics.
func (p *Provider) MetricCounters() map[string]func() uint64 {
	return map[string]func() uint64{
		"udpnet.datagrams_in":   p.datagramsIn.Load,
		"udpnet.datagrams_out":  p.datagramsOut.Load,
		"udpnet.frames_in":      p.framesIn.Load,
		"udpnet.frames_out":     p.framesOut.Load,
		"udpnet.batches_out":    p.batchesOut.Load,
		"udpnet.flushes_size":   p.flushesSize.Load,
		"udpnet.flushes_window": p.flushesWindow.Load,
		"udpnet.flushes_reply":  p.flushesReply.Load,
		"udpnet.kernel_drops":   p.kernelDrops,
		"udpnet.skipped_copies": p.skippedCopies.Load,
		"udpnet.fanout_errors":  p.fanoutErrs.Load,
		"udpnet.send_errors":    p.sendErrs.Load,
		"udpnet.dropped_posts":  p.droppedPosts.Load,
		"udpnet.trains_out":     p.trainsOut.Load,
		"udpnet.train_frames":   p.trainFrames.Load,
		"udpnet.rehomed_frames": p.rehomedFrames.Load,
	}
}

// kernelDrops sums the kernel drop counts of the endpoints' sockets: each
// open one read now, the closed ones as last read at their Close.
func (p *Provider) kernelDrops() uint64 {
	p.mu.Lock()
	defer p.mu.Unlock()
	n := p.closedDrops
	for _, ep := range p.eps {
		n += sockDrops(ep.sock)
	}
	return n
}

// Close shuts the provider down in order: close every endpoint (which
// writes its open datagram and unblocks its reader), wait for the readers to
// drain, then stop the event loop and wait for it to finish the queued
// work. Idempotent.
func (p *Provider) Close() {
	if p.closed.Swap(true) {
		<-p.done
		return
	}
	p.mu.Lock()
	eps := make([]*Endpoint, 0, len(p.eps))
	for _, ep := range p.eps {
		eps = append(eps, ep)
	}
	p.mu.Unlock()
	for _, ep := range eps {
		ep.Close()
	}
	p.readers.Wait()
	close(p.quit)
	<-p.done
}

// RegisterGroup declares a software multicast group: sends to it fan out as
// unicast datagrams to each member (usable where IP multicast is not).
func (p *Provider) RegisterGroup(group netapi.HostID, members ...netapi.HostID) {
	p.mu.Lock()
	defer p.mu.Unlock()
	p.groups[group] = append([]netapi.HostID(nil), members...)
	p.publishLocked()
}

// RegisterHost maps a remote host ID onto a UDP address ("10.0.0.7:9000"),
// so endpoints on this provider can reach peers opened by another provider
// instance on a different machine. Locally opened hosts register themselves.
func (p *Provider) RegisterHost(host netapi.HostID, addr string) error {
	ua, err := net.ResolveUDPAddr("udp4", addr)
	if err != nil {
		return fmt.Errorf("udpnet: resolving %q: %w", addr, err)
	}
	p.mu.Lock()
	defer p.mu.Unlock()
	if _, local := p.eps[host]; local {
		return fmt.Errorf("udpnet: host %v is opened locally", host)
	}
	p.hosts[host] = hostAddr(ua)
	p.publishLocked()
	return nil
}

// clock is wall time relative to the provider epoch.
type clock struct {
	p     *Provider
	epoch time.Time
}

var _ netapi.Clock = clock{}

func (c clock) Now() time.Duration { return time.Since(c.epoch) }

func (c clock) AfterFunc(d time.Duration, fn func()) netapi.Timer {
	t := &timer{p: c.p, fn: fn}
	t.t = time.AfterFunc(d, t.post)
	return t
}

type timer struct {
	t  *time.Timer
	p  *Provider
	fn func()
}

// post hands the callback to the event loop. Timer callbacks are
// control-plane work: use the blocking Post (a full queue delays the timer
// rather than dropping protocol events).
func (t *timer) post() { t.p.Post(t.fn) }

func (t *timer) Stop() bool { return t.t.Stop() }

// Reset re-arms the timer to run the same callback after d. The event
// manager finds it by type assertion and re-arms through it, so a timer that
// is reset on every send and every ack (the RTO) costs one runtime timer and
// one closure for its whole life instead of one of each per arm.
func (t *timer) Reset(d time.Duration) { t.t.Reset(d) }

// Clock implements netapi.Provider.
func (p *Provider) Clock() netapi.Clock { return p.clock }

// LoopCache returns the free lists of the provider's event loop. Protocol
// code runs only there (receive upcalls, timers, posted closures), so a
// protocol stack recycles its per-packet buffers, views and PDUs through
// them without a lock (protograph.NewStack finds them here). Nothing off the
// loop may use them: the reader goroutine, the slabs it fills and the
// per-packet Send stay on the shared tier.
func (p *Provider) LoopCache() *wire.Cache { return &p.cache }

// Endpoint is a UDP-backed netapi.Endpoint.
type Endpoint struct {
	p      *Provider
	host   netapi.HostID
	port   uint16
	sock   *net.UDPConn
	closed atomic.Bool

	batch    int           // frames per size flush
	flushWin time.Duration // 0 = per-packet sends

	// recv/recvBatch hold the receive upcalls; written by SetReceiver /
	// SetBatchReceiver (any goroutine, including the loop itself) and
	// loaded by the batch closures, which invoke them on the loop
	// goroutine only. When both are installed the batch upcall wins.
	recv      atomic.Value // of recvBox
	recvBatch atomic.Value // of batchBox

	// The open datagram of a batched endpoint: trainHdr bytes of header
	// room, then one train record per frame Send laid into it, all bound for
	// outHost. sendMu guards it and is held across its write, so datagrams
	// leave the socket in Send order.
	sendMu  sync.Mutex
	out     []byte
	outN    int            // frames in out
	outDst  netip.AddrPort // outHost's address when the datagram opened
	outHost netapi.HostID  // re-resolved against the registry at write time
	outData bool           // out holds a data frame (isData): no reply flush
	win     windowTimer    // platform-specific flush-window timer (window_*.go)

	sent     atomic.Uint64 // frames written to the socket
	received atomic.Uint64 // frames read from the socket
	dropped  atomic.Uint64 // frames shed by the bounded loop queue
}

var (
	_ netapi.Endpoint      = (*Endpoint)(nil)
	_ netapi.BatchEndpoint = (*Endpoint)(nil)
)

// SentCount reports frames successfully written to the socket (a train
// counts each frame it carries).
func (ep *Endpoint) SentCount() uint64 { return ep.sent.Load() }

// ReceivedCount reports frames read from the socket, as the datagrams'
// bytes carry them (before any queue shedding).
func (ep *Endpoint) ReceivedCount() uint64 { return ep.received.Load() }

// DroppedCount reports frames shed because the event-loop queue was full.
func (ep *Endpoint) DroppedCount() uint64 { return ep.dropped.Load() }

// Open binds a UDP socket for the host on the provider's bind address and
// starts its reader. The netapi port is carried inside each datagram header
// byte pair (hosts are distinguished by UDP port, so one OS port serves one
// host).
func (p *Provider) Open(host netapi.HostID, port uint16) (netapi.Endpoint, error) {
	if p.closed.Load() {
		return nil, errors.New("udpnet: provider closed")
	}
	ip := net.ParseIP(p.cfg.BindIP)
	if ip == nil {
		return nil, fmt.Errorf("udpnet: invalid bind IP %q", p.cfg.BindIP)
	}
	p.mu.Lock()
	defer p.mu.Unlock()
	if _, busy := p.hosts[host]; busy {
		return nil, fmt.Errorf("udpnet: host %v already open (one endpoint per host)", host)
	}
	sock, err := net.ListenUDP("udp4", &net.UDPAddr{IP: ip, Port: 0})
	if err != nil {
		return nil, err
	}
	if p.cfg.ReadBuffer > 0 {
		if err := sock.SetReadBuffer(p.cfg.ReadBuffer); err != nil {
			sock.Close()
			return nil, fmt.Errorf("udpnet: read buffer: %w", err)
		}
	}
	if p.cfg.WriteBuffer > 0 {
		if err := sock.SetWriteBuffer(p.cfg.WriteBuffer); err != nil {
			sock.Close()
			return nil, fmt.Errorf("udpnet: write buffer: %w", err)
		}
	}
	if port == 0 {
		port = 49152
	}
	ep := &Endpoint{
		p: p, host: host, port: port, sock: sock,
		batch: p.cfg.BatchSize, flushWin: p.cfg.FlushWindow,
	}
	if ep.batched() {
		ep.out = make([]byte, 0, maxPacket)
		if err := ep.win.init(ep); err != nil {
			sock.Close()
			return nil, err
		}
	}
	p.hosts[host] = hostAddr(sock.LocalAddr().(*net.UDPAddr))
	p.eps[host] = ep
	p.publishLocked()
	p.readers.Add(1)
	go ep.reader()
	return ep, nil
}

// rxBatch is one posted receive batch: one datagram, copied into one pooled
// slab, and the frames it carries as views into that slab. It is pooled, with
// its loop closure bound once at construction, so the steady-state packet path
// allocates nothing.
type rxBatch struct {
	ep   *Endpoint
	slab []byte
	pkts []netapi.Packet // Data fields are views into slab
	run  func()
}

// rxBatches recycles receive batches: the reader takes them, the loop (or the
// reader, on a shed batch) gives them back, one per datagram.
var rxBatches sync.Pool // New set in init (a direct literal would cycle)

func init() {
	rxBatches.New = func() any {
		b := &rxBatch{}
		b.run = b.deliver
		return b
	}
}

// release frees the datagram's slab and recycles the batch. The slab goes to
// the shared tier even on the loop: the reader that takes slabs runs off the
// loop, so on the loop's lists — one per size class a datagram spans, each
// holding up to its bound — they would only sit.
func (b *rxBatch) release() {
	message.PutSlab(b.slab)
	clear(b.pkts)
	b.ep, b.slab, b.pkts = nil, nil, b.pkts[:0]
	rxBatches.Put(b)
}

// deliver runs on the loop goroutine: one closure per batch, the whole
// batch through the batch upcall when one is installed, else the per-packet
// receiver per element. Then the replies the upcall laid into the endpoint's
// open datagram leave (flushReply).
func (b *rxBatch) deliver() {
	ep := b.ep
	if !ep.closed.Load() {
		if bb, _ := ep.recvBatch.Load().(batchBox); bb.fn != nil {
			bb.fn(b.pkts)
		} else if rb, _ := ep.recv.Load().(recvBox); rb.fn != nil {
			for i := range b.pkts {
				rb.fn(b.pkts[i].Data, b.pkts[i].From)
			}
		}
	}
	b.release()
	ep.flushReply()
}

// reader pumps datagrams into the event loop, one read each: the source
// address is in the frame header, so a plain Read serves. It owns its socket
// until the socket closes, then signals the provider's reader WaitGroup —
// Close waits on that before stopping the loop, so shutdown never strands
// an upcall.
func (ep *Endpoint) reader() {
	defer ep.p.readers.Done()
	buf := make([]byte, maxPacket)
	for {
		n, err := ep.sock.Read(buf)
		if err != nil {
			return // socket closed
		}
		ep.dispatch(buf[:n])
	}
}

// parseSrc decodes a 6-byte frame header: srcHost uint32 | srcPort uint16.
func parseSrc(hdr []byte) netapi.Addr {
	return netapi.Addr{
		Host: netapi.HostID(hdr[0])<<24 | netapi.HostID(hdr[1])<<16 | netapi.HostID(hdr[2])<<8 | netapi.HostID(hdr[3]),
		Port: uint16(hdr[4])<<8 | uint16(hdr[5]),
	}
}

// putSrc encodes a 6-byte frame header (the inverse of parseSrc).
func putSrc(hdr []byte, a netapi.Addr) {
	hdr[0], hdr[1], hdr[2], hdr[3] = byte(a.Host>>24), byte(a.Host>>16), byte(a.Host>>8), byte(a.Host)
	hdr[4], hdr[5] = byte(a.Port>>8), byte(a.Port)
}

// putTrainHdr writes the header of a train of n frames from src.
func putTrainHdr(dgram []byte, n int, src netapi.Addr) {
	dgram[0], dgram[1], dgram[2], dgram[3] = trainMarker, trainMarker, trainMarker, trainMarker
	dgram[4], dgram[5] = byte(n>>8), byte(n)
	putSrc(dgram[6:trainHdr], src)
}

// appendRecord appends one train record: uint16 BE length | payload.
func appendRecord(dgram, payload []byte) []byte {
	return append(append(dgram, byte(len(payload)>>8), byte(len(payload))), payload...)
}

// isTrain reports whether a wire datagram is a coalesced frame train.
func isTrain(dgram []byte) bool {
	return len(dgram) >= trainHdr &&
		dgram[0] == trainMarker && dgram[1] == trainMarker &&
		dgram[2] == trainMarker && dgram[3] == trainMarker
}

// expand appends each protocol frame of one wire datagram to b, as a view
// into dgram, and returns how many frames the datagram holds; with b nil it
// only counts them. A single frame is the datagram after its 6-byte header.
// A train yields its records until one runs past the end of the datagram (the
// damage cannot be re-synchronized), so the count is what the bytes carry,
// never what the train header claims — and never more than maxBatch, the most
// a udpnet sender packs, so a forged train of empty records costs one batch.
func expand(dgram []byte, b *rxBatch) int {
	if !isTrain(dgram) {
		if len(dgram) < frameOverhead {
			return 0
		}
		b.add(dgram[frameOverhead:], parseSrc(dgram))
		return 1
	}
	cnt := min(int(dgram[4])<<8|int(dgram[5]), maxBatch)
	src := parseSrc(dgram[6:trainHdr])
	off, n := trainHdr, 0
	for ; n < cnt && off+trainRecHdr <= len(dgram); n++ {
		rl := int(dgram[off])<<8 | int(dgram[off+1])
		off += trainRecHdr
		if off+rl > len(dgram) {
			break
		}
		b.add(dgram[off:off+rl], src)
		off += rl
	}
	return n
}

// add appends one frame; a nil batch is a count only (see expand).
func (b *rxBatch) add(payload []byte, src netapi.Addr) {
	if b != nil {
		b.pkts = append(b.pkts, netapi.Packet{Data: payload, From: src})
	}
}

// dispatch copies one received datagram into a pooled slab, expands its
// frames — a train back into individual packets — as views into it, and posts
// a single closure for them, shedding (with counts, and without copying) when
// nobody can consume them.
func (ep *Endpoint) dispatch(dgram []byte) {
	// Copy-avoidance checks (the authoritative drop still happens at
	// tryPost): no receiver installed, or the loop queue already full —
	// either way these frames cannot be consumed, so only count them.
	rb, _ := ep.recv.Load().(recvBox)
	bb, _ := ep.recvBatch.Load().(batchBox)
	if (rb.fn == nil && bb.fn == nil) || ep.closed.Load() {
		ep.p.skippedCopies.Add(ep.countIn(expand(dgram, nil)))
		return
	}
	if ep.p.loopFull() {
		n := ep.countIn(expand(dgram, nil))
		ep.p.skippedCopies.Add(n)
		ep.dropped.Add(n)
		return
	}

	b := rxBatches.Get().(*rxBatch)
	b.ep = ep
	b.slab = message.GetSlab(len(dgram))
	copy(b.slab, dgram)
	if ep.countIn(expand(b.slab, b)) == 0 {
		b.release()
		return
	}
	if !ep.p.tryPost(b.run) {
		ep.dropped.Add(uint64(len(b.pkts)))
		b.release()
	}
}

// countIn books one received datagram holding n frames (none when it held
// no frame) and returns n.
func (ep *Endpoint) countIn(n int) uint64 {
	if n > 0 {
		ep.received.Add(uint64(n))
		ep.p.framesIn.Add(uint64(n))
		ep.p.datagramsIn.Add(1)
	}
	return uint64(n)
}

// Send frames and transmits pkt toward dst. For multicast destinations the
// send fans out to every group member and keeps going past per-member
// failures: the errors are aggregated (errors.Join) and counted, so one
// dead peer cannot starve the rest of the group.
func (ep *Endpoint) Send(pkt []byte, dst netapi.Addr) error {
	if ep.closed.Load() {
		return errors.New("udpnet: endpoint closed")
	}
	reg := ep.p.reg.Load()
	if dst.Host.IsMulticast() {
		members := reg.groups[dst.Host]
		if members == nil {
			return fmt.Errorf("udpnet: unknown group %v", dst.Host)
		}
		var errs []error
		for _, m := range members {
			if m == ep.host {
				continue
			}
			if err := ep.sendTo(reg, pkt, netapi.Addr{Host: m, Port: dst.Port}); err != nil {
				ep.p.fanoutErrs.Add(1)
				errs = append(errs, fmt.Errorf("udpnet: group %v member %v: %w", dst.Host, m, err))
			}
		}
		return errors.Join(errs...)
	}
	return ep.sendTo(reg, pkt, dst)
}

// batched reports whether sends go through the open datagram (FlushWindow > 0
// and a batch deeper than one) rather than one socket write each.
func (ep *Endpoint) batched() bool { return ep.flushWin > 0 && ep.batch > 1 }

func (ep *Endpoint) sendTo(reg *registry, pkt []byte, dst netapi.Addr) error {
	ha, ok := reg.hosts[dst.Host]
	if !ok {
		return fmt.Errorf("udpnet: unknown host %v", dst.Host)
	}
	if ep.batched() {
		return ep.enqueue(pkt, ha, dst.Host)
	}
	// Per-packet path: one write per Send, error straight back, wire format
	// bitwise identical to the pre-batching provider.
	frame := message.GetSlab(frameOverhead + len(pkt))
	putSrc(frame, ep.LocalAddr())
	copy(frame[frameOverhead:], pkt)
	_, err := ep.sock.WriteToUDPAddrPort(frame, ha)
	message.PutSlab(frame)
	if err == nil {
		ep.sent.Add(1)
		ep.p.datagramsOut.Add(1)
		ep.p.framesOut.Add(1)
	}
	return err
}

// enqueue lays pkt into the open datagram as one train record. A datagram
// bound for another host, or with no room for the record, is written first;
// one that now holds a batch is written at once (size flush). Opening a
// datagram arms the flush window.
func (ep *Endpoint) enqueue(pkt []byte, dst netip.AddrPort, dstHost netapi.HostID) error {
	ep.sendMu.Lock()
	defer ep.sendMu.Unlock()
	if ep.closed.Load() {
		return errors.New("udpnet: endpoint closed")
	}
	if ep.outN > 0 && (dstHost != ep.outHost || len(ep.out)+trainRecHdr+len(pkt) > maxTrainBytes) {
		if err := ep.writeLocked(); err != nil {
			return err
		}
	}
	if ep.outN == 0 {
		ep.out, ep.outDst, ep.outHost, ep.outData = ep.out[:trainHdr], dst, dstHost, false
		ep.win.arm()
	}
	ep.out = appendRecord(ep.out, pkt)
	ep.outData = ep.outData || isData(pkt)
	if ep.outN++; ep.outN >= ep.batch {
		ep.p.flushesSize.Add(1)
		return ep.writeLocked()
	}
	return nil
}

// isData reports whether a frame is a data PDU: a wire.TData or wire.TParity
// type in the low nibble of its first byte. Every other frame — acks, NAKs,
// control — is a reply, which the reply flush may write at once.
func isData(pkt []byte) bool {
	if len(pkt) == 0 {
		return false
	}
	t := wire.Type(pkt[0] & 0x0f)
	return t == wire.TData || t == wire.TParity
}

// flushReply writes the open datagram when it holds no data frame. It runs
// after every receive upcall, so the acks and NAKs a batch produced leave
// when the batch ends rather than a flush window later; a datagram holding
// data keeps waiting for its size or window flush, so replies never cut a
// data train short. Runs on the loop.
func (ep *Endpoint) flushReply() {
	ep.sendMu.Lock()
	defer ep.sendMu.Unlock()
	if ep.outN == 0 || ep.outData || ep.closed.Load() {
		return
	}
	ep.p.flushesReply.Add(1)
	if err := ep.writeLocked(); err != nil {
		ep.p.sendErrs.Add(1)
	}
}

// onFlushTimer writes whatever accumulated during the flush window.
func (ep *Endpoint) onFlushTimer() {
	ep.sendMu.Lock()
	defer ep.sendMu.Unlock()
	if ep.outN == 0 || ep.closed.Load() {
		return
	}
	ep.p.flushesWindow.Add(1)
	if err := ep.writeLocked(); err != nil {
		ep.p.sendErrs.Add(1)
	}
}

// writeLocked writes the open datagram and empties it. A lone frame leaves
// in the single format, its 6-byte header written over the train bytes in
// front of its payload; more frames leave as a train, its header written into
// the room left for it. The destination is re-resolved against the current
// registry snapshot: frames laid in before their peer re-registered (restart
// on a new socket) go to its new address. Called with sendMu held and the
// datagram non-empty.
func (ep *Endpoint) writeLocked() error {
	n := ep.outN
	dgram := ep.out
	if n == 1 {
		dgram = dgram[trainHdr+trainRecHdr-frameOverhead:]
		putSrc(dgram, ep.LocalAddr())
	} else {
		putTrainHdr(dgram, n, ep.LocalAddr())
		ep.p.trainsOut.Add(1)
		ep.p.trainFrames.Add(uint64(n))
	}
	dst := ep.outDst
	if ha, ok := ep.p.reg.Load().hosts[ep.outHost]; ok && ha != dst {
		dst = ha
		ep.p.rehomedFrames.Add(uint64(n))
	}
	ep.outN = 0
	ep.p.batchesOut.Add(1)
	if _, err := ep.sock.WriteToUDPAddrPort(dgram, dst); err != nil {
		return err
	}
	ep.sent.Add(uint64(n))
	ep.p.framesOut.Add(uint64(n))
	ep.p.datagramsOut.Add(1)
	return nil
}

// Flush writes the open datagram now (size/window semantics are bypassed).
// Useful in tests and before latency-sensitive quiesce points.
func (ep *Endpoint) Flush() error {
	ep.sendMu.Lock()
	defer ep.sendMu.Unlock()
	if ep.outN == 0 || ep.closed.Load() {
		return nil
	}
	return ep.writeLocked()
}

// recvBox wraps the receiver so atomic.Value can store a nil upcall.
type recvBox struct{ fn netapi.Receiver }

// batchBox wraps the batch receiver the same way.
type batchBox struct{ fn netapi.BatchReceiver }

// SetReceiver installs the per-packet receive upcall. Safe from any
// goroutine (the slot is atomic); the upcall itself always runs on the
// event loop.
func (ep *Endpoint) SetReceiver(r netapi.Receiver) {
	ep.recv.Store(recvBox{fn: r})
}

// SetBatchReceiver installs the batched receive upcall (netapi.
// BatchEndpoint). When installed it takes precedence over the per-packet
// receiver: each posted batch is delivered in a single call, with packet
// buffers valid only for its duration.
func (ep *Endpoint) SetBatchReceiver(r netapi.BatchReceiver) {
	ep.recvBatch.Store(batchBox{fn: r})
}

// LocalAddr returns the endpoint's netapi address.
func (ep *Endpoint) LocalAddr() netapi.Addr {
	return netapi.Addr{Host: ep.host, Port: ep.port}
}

// Close writes the open datagram, shuts the socket, and unregisters the
// host. Idempotent and safe from any goroutine; the reader goroutine exits
// once the socket read fails.
func (ep *Endpoint) Close() error {
	if ep.closed.Swap(true) {
		return nil
	}
	// Write the open datagram before the socket goes away. The closed flag
	// is already set, so no new frame can be laid in behind it.
	ep.sendMu.Lock()
	ep.win.close()
	if ep.outN > 0 {
		ep.writeLocked()
	}
	ep.sendMu.Unlock()
	ep.p.mu.Lock()
	ep.p.closedDrops += sockDrops(ep.sock)
	delete(ep.p.hosts, ep.host)
	delete(ep.p.eps, ep.host)
	ep.p.publishLocked()
	ep.p.mu.Unlock()
	return ep.sock.Close()
}
