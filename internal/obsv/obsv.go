// Package obsv is the live observability plane: it exports the UNITES metric
// repository and the flight-recorder trace out of a running node with
// bounded, measured overhead.
//
// The paper's UNITES entity exists so MANTTS can *watch* lightweight
// sessions and adapt them; this package is the presentation half of that
// loop for an operator. Two surfaces:
//
//   - Metric snapshots: the unites.Repository rendered as JSON (the PR-4
//     Snapshot schema) and as Prometheus text exposition, over an embedded
//     HTTP endpoint. Snapshot capture takes only the existing bounded
//     per-recorder locks — there is no global pause, and the simulation
//     never blocks on a scrape.
//   - Trace streaming: a chaser goroutine drains trace.Stream chunks (pushed
//     by the recorder writers at their flush watermark), encodes each chunk
//     exactly once into a length-prefixed binary frame, and fans the frames
//     out to subscribers (HTTP chunked responses, file sinks, the in-process
//     archive). Slow subscribers drop frames — counted, and detectable
//     downstream as a stream gap — rather than ever back-pressuring the
//     data path.
package obsv

import (
	"context"
	"fmt"
	"net"
	"net/http"
	"sync"
	"sync/atomic"
	"time"

	"adaptive/internal/trace"
	"adaptive/internal/unites"
)

// Options configures a Plane. All fields are optional; a zero Options is a
// metrics-less, trace-less plane that still serves /healthz.
type Options struct {
	// Repository is the UNITES metric repository to export.
	Repository *unites.Repository

	// Recorders are the flight recorders (one per shard) to stream. The
	// plane installs its stream on each; install happens in New, before any
	// recording, because the streaming fields are writer-owned afterwards.
	Recorders []*trace.Recorder

	// FlushEvery is the per-recorder flush watermark in records
	// (<= 0 selects a quarter of each ring; capped at half).
	FlushEvery int

	// SubBuffer is each subscriber's frame-channel depth (<= 0 selects 64).
	SubBuffer int

	// Archive keeps an in-process reassembly of every streamed chunk, for
	// post-run trace.Diff gating against a tailed recording.
	Archive bool

	// Counters are extra process-level gauges exported on the metrics
	// surfaces (e.g. a udpnet provider's dropped-post count), read at
	// scrape time. Keys should be dotted metric names.
	Counters map[string]func() uint64
}

const defaultSubBuffer = 64

// Subscriber receives encoded trace frames. Frames are immutable byte
// slices shared across subscribers; consumers must not modify them.
type Subscriber struct {
	frames  chan []byte
	plane   *Plane
	id      int
	dropped atomic.Uint64
	once    sync.Once
}

// Frames is the subscriber's channel; it closes when the trace stream ends
// or the subscription is canceled.
func (s *Subscriber) Frames() <-chan []byte { return s.frames }

// Dropped returns how many frames this subscriber lost to a full buffer.
// Lost frames surface downstream as a stream gap (chunk start mismatch).
func (s *Subscriber) Dropped() uint64 { return s.dropped.Load() }

// Cancel detaches the subscriber; its channel is closed.
func (s *Subscriber) Cancel() { s.plane.unsubscribe(s) }

// Plane is one node's observability plane.
type Plane struct {
	opts   Options
	stream *trace.Stream

	mu      sync.Mutex
	subs    map[int]*Subscriber
	nextSub int
	archive *trace.SetBuilder
	archErr error
	subWait chan struct{} // closed when the first subscriber attaches
	server  *http.Server
	addr    string
	done    chan struct{} // closed when the chaser exits
	closed  bool

	scrapes     atomic.Uint64
	framesOut   atomic.Uint64
	subDrops    atomic.Uint64
	recordsSeen atomic.Uint64
}

// New builds a plane and, when recorders are configured, installs the trace
// stream on them and starts the chaser goroutine. Call before the recorders
// start recording.
func New(opts Options) (*Plane, error) {
	p := &Plane{
		opts:    opts,
		subs:    make(map[int]*Subscriber),
		subWait: make(chan struct{}),
		done:    make(chan struct{}),
	}
	if opts.Archive {
		p.archive = trace.NewSetBuilder()
	}
	if len(opts.Recorders) > 0 {
		p.stream = trace.NewStream(trace.DefaultStreamQueue)
		for _, r := range opts.Recorders {
			if err := r.SetStream(p.stream, opts.FlushEvery); err != nil {
				return nil, err
			}
		}
		go p.chase()
	} else {
		close(p.done)
	}
	return p, nil
}

// chase is the chaser goroutine: it drains the chunk queue, encodes each
// chunk once, archives it, fans the frame out, and recycles the chunk.
func (p *Plane) chase() {
	defer close(p.done)
	for c := range p.stream.Chunks() {
		p.recordsSeen.Add(uint64(len(c.Records)))
		p.mu.Lock()
		if p.archive != nil && p.archErr == nil {
			p.archErr = p.archive.Add(*c) // copies the records; chunk stays writer-owned
		}
		nsubs := len(p.subs)
		p.mu.Unlock()
		// Encode only when someone is listening: an idle plane's standing
		// cost is the ring copy, not the wire encoding. A subscriber that
		// attaches between this check and the next chunk merely starts one
		// chunk later — indistinguishable from attaching one chunk later.
		var frame []byte
		if nsubs > 0 {
			frame = trace.AppendFrame(make([]byte, 0, trace.FrameSize(len(c.Records))), c)
		}
		p.stream.Recycle(c)
		if frame != nil {
			p.fanout(frame)
		}
	}
	// Stream closed: end every subscriber.
	p.mu.Lock()
	for id, s := range p.subs {
		close(s.frames)
		delete(p.subs, id)
	}
	p.mu.Unlock()
}

// fanout delivers one encoded frame to every subscriber, non-blocking.
func (p *Plane) fanout(frame []byte) {
	p.mu.Lock()
	defer p.mu.Unlock()
	for _, s := range p.subs {
		select {
		case s.frames <- frame:
			p.framesOut.Add(1)
		default:
			s.dropped.Add(1)
			p.subDrops.Add(1)
		}
	}
}

// Subscribe attaches a trace-frame subscriber. Returns an error when the
// plane has no trace stream or it has already ended.
func (p *Plane) Subscribe() (*Subscriber, error) {
	if p.stream == nil {
		return nil, fmt.Errorf("obsv: trace streaming not configured")
	}
	buf := p.opts.SubBuffer
	if buf <= 0 {
		buf = defaultSubBuffer
	}
	p.mu.Lock()
	defer p.mu.Unlock()
	select {
	case <-p.done:
		return nil, fmt.Errorf("obsv: trace stream has ended")
	default:
	}
	s := &Subscriber{frames: make(chan []byte, buf), plane: p, id: p.nextSub}
	p.nextSub++
	p.subs[s.id] = s
	select {
	case <-p.subWait:
	default:
		close(p.subWait)
	}
	return s, nil
}

func (p *Plane) unsubscribe(s *Subscriber) {
	s.once.Do(func() {
		p.mu.Lock()
		if _, ok := p.subs[s.id]; ok {
			delete(p.subs, s.id)
			close(s.frames)
		}
		p.mu.Unlock()
	})
}

// WaitSubscriber blocks until at least one trace subscriber has attached
// (ever), or the context ends. Soak runs use it to let a tail client attach
// from record zero before traffic starts.
func (p *Plane) WaitSubscriber(ctx context.Context) error {
	select {
	case <-p.subWait:
		return nil
	case <-ctx.Done():
		return ctx.Err()
	}
}

// FinishTrace flushes every recorder's pending tail into the stream and
// closes it; the chaser drains and ends all subscribers. Call only once the
// recorders' writers have quiesced (e.g. after RunSharded returns). Safe to
// call more than once.
func (p *Plane) FinishTrace() {
	p.mu.Lock()
	if p.closed || p.stream == nil {
		p.mu.Unlock()
		return
	}
	p.closed = true
	p.mu.Unlock()
	for _, r := range p.opts.Recorders {
		r.Flush()
	}
	p.stream.Close()
	<-p.done
}

// Archive returns the in-process reassembly of the streamed trace. Call
// after FinishTrace; returns an error if archiving was off, a chunk was
// lost to queue overflow, or the stream is still live.
func (p *Plane) Archive() (*trace.Set, error) {
	if p.archive == nil {
		return nil, fmt.Errorf("obsv: archiving not enabled")
	}
	select {
	case <-p.done:
	default:
		return nil, fmt.Errorf("obsv: trace stream still live (call FinishTrace first)")
	}
	p.mu.Lock()
	defer p.mu.Unlock()
	if p.archErr != nil {
		return nil, fmt.Errorf("obsv: archive incomplete: %w", p.archErr)
	}
	return p.archive.Set(), nil
}

// RegisterCounters merges extra process-level counters into the exported
// metrics surfaces. This is the post-construction path: a subsystem created
// after the node (e.g. a control-plane controller) publishes its counters on
// an already-running plane. Later registrations win on key collisions. The
// merge is copy-on-write, so an in-flight scrape keeps reading its snapshot.
func (p *Plane) RegisterCounters(extra map[string]func() uint64) {
	p.mu.Lock()
	defer p.mu.Unlock()
	merged := make(map[string]func() uint64, len(p.opts.Counters)+len(extra))
	for k, v := range p.opts.Counters {
		merged[k] = v
	}
	for k, v := range extra {
		merged[k] = v
	}
	p.opts.Counters = merged
}

// counters returns the current extra-counter map (copy-on-write snapshot).
func (p *Plane) counters() map[string]func() uint64 {
	p.mu.Lock()
	defer p.mu.Unlock()
	return p.opts.Counters
}

// MetricsSnapshot captures the repository (empty snapshot when no
// repository is configured).
func (p *Plane) MetricsSnapshot() unites.Snapshot {
	p.scrapes.Add(1)
	if p.opts.Repository == nil {
		return unites.Snapshot{}
	}
	return p.opts.Repository.Snapshot()
}

// TraceDropped returns chunks lost between writers and chaser (queue
// overflow). Zero means the archive and an attached-from-start subscriber
// saw every record.
func (p *Plane) TraceDropped() uint64 {
	if p.stream == nil {
		return 0
	}
	return p.stream.DroppedChunks()
}

// Serve starts the embedded HTTP endpoint on listen (host:port; port 0
// picks a free one) and returns the bound address.
func (p *Plane) Serve(listen string) (string, error) {
	ln, err := net.Listen("tcp", listen)
	if err != nil {
		return "", err
	}
	p.mu.Lock()
	p.server = &http.Server{Handler: p.Handler(), ReadHeaderTimeout: 10 * time.Second}
	p.addr = ln.Addr().String()
	p.mu.Unlock()
	go p.server.Serve(ln)
	return p.addr, nil
}

// Addr returns the bound endpoint address ("" before Serve).
func (p *Plane) Addr() string {
	p.mu.Lock()
	defer p.mu.Unlock()
	return p.addr
}

// Close tears the plane down: trace stream finished (writers must be
// quiesced if tracing was active), HTTP server shut down. Shutdown is
// graceful with a bounded wait — a /trace tail still draining the finished
// stream gets to read its last frames instead of a mid-frame reset — and
// falls back to a hard close if a client won't let go.
func (p *Plane) Close() error {
	p.FinishTrace()
	p.mu.Lock()
	srv := p.server
	p.server = nil
	p.mu.Unlock()
	if srv != nil {
		ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
		defer cancel()
		if err := srv.Shutdown(ctx); err != nil {
			return srv.Close()
		}
	}
	return nil
}
