package adaptive

import (
	"context"
	"errors"
	"net/http"
	"sync"

	"adaptive/internal/obsv"
	"adaptive/internal/trace"
	"adaptive/internal/unites"
)

var (
	errObsvDisabled  = errors.New("adaptive: observability not configured (WithObservability)")
	errFrameTrailing = errors.New("adaptive: trace frame carried trailing bytes")
)

// Observability type vocabulary. The redesigned surface keeps internal
// packages out of application signatures: applications configure a plain
// Observe struct and read back snapshot/stream values.
type (
	// MetricsRepository is the UNITES metric repository. Supply one in
	// Observe.Repository to share it across nodes (sharded experiments);
	// leave it nil and the node creates its own.
	MetricsRepository = unites.Repository
	// MetricsSnapshot is a point-in-time export of the repository at
	// systemwide, per-host, and per-connection scope.
	MetricsSnapshot = unites.Snapshot
	// FlightRecorder is the fixed-size-record trace ring (advanced use:
	// sharing one recorder between a node and a simulation kernel).
	FlightRecorder = trace.Recorder
	// TraceRecord is one 38-byte flight-recorder record.
	TraceRecord = trace.Record
	// TraceChunk is a contiguous run of streamed trace records.
	TraceChunk = trace.Chunk
	// TraceSet is a complete assembled trace (diffable, writable).
	TraceSet = trace.Set
)

// Observe configures a node's observability plane: what is collected
// (metrics repository, flight recorder), how densely (sampling, ring and
// flush sizing), and where it is exported (embedded HTTP endpoint). The
// zero value collects metrics into a private repository with tracing off.
type Observe struct {
	// Listen, when non-empty, serves the observability HTTP endpoint on
	// this address ("127.0.0.1:0" picks a free port; read it back from
	// Observability().Addr()). Endpoints: /metrics (Prometheus text),
	// /metrics.json, /trace (live binary stream), /healthz.
	Listen string

	// Repository receives UNITES instrumentation for every session on the
	// node. Nil allocates a per-node repository.
	Repository *MetricsRepository

	// TraceBuffer, when > 0, enables flight recording into a node-owned
	// ring of at least this many records (rounded up to a power of two).
	TraceBuffer int

	// TraceSample keeps one in N keyed data-path trace events (N a power
	// of two; 0 or 1 keeps all). Structural events are never sampled out.
	TraceSample uint64

	// TraceFlush is the streaming flush watermark in records: the recorder
	// hands records to the trace stream each time this many are pending.
	// 0 selects a quarter of the ring; capped at half the ring.
	TraceFlush int

	// TraceArchive keeps an in-process reassembly of everything streamed,
	// retrievable as a TraceSet for post-run diffing against a live tail.
	TraceArchive bool

	// Tracer, when set, records into this externally-owned recorder
	// instead of a node-owned ring. The node does not install streaming on
	// it (the owner controls collection); TraceBuffer/TraceSample/
	// TraceFlush are ignored. Sharded experiments that collect their own
	// per-shard recorders use this.
	Tracer *FlightRecorder

	// Counters adds process-level counters to the exported surfaces (e.g.
	// a udpnet provider's dropped-post count), read at scrape time.
	Counters map[string]func() uint64
}

// WithObservability configures the node's observability plane.
func WithObservability(cfg Observe) Option {
	return func(o *options) { o.observe = &cfg }
}

// Observability is a node's handle on its observability plane. Obtain it
// from Node.Observability(); it is always non-nil, with Enabled reporting
// whether a plane was configured.
type Observability struct {
	plane *obsv.Plane
	repo  *MetricsRepository
	rec   *FlightRecorder
	owned bool // recorder is node-owned (streaming installed)
}

// Enabled reports whether an observability plane was configured.
func (o *Observability) Enabled() bool { return o.plane != nil }

// MetricsSnapshot captures the node's UNITES repository. Snapshot capture
// takes only bounded per-recorder locks; it never pauses the data path.
func (o *Observability) MetricsSnapshot() MetricsSnapshot {
	if o.plane == nil {
		return MetricsSnapshot{}
	}
	return o.plane.MetricsSnapshot()
}

// Repository returns the repository the node records into (nil when
// observability is unconfigured).
func (o *Observability) Repository() *MetricsRepository { return o.repo }

// Recorder returns the node's flight recorder (nil when tracing is off).
func (o *Observability) Recorder() *FlightRecorder { return o.rec }

// Addr returns the HTTP endpoint's bound address ("" when not serving).
func (o *Observability) Addr() string {
	if o.plane == nil {
		return ""
	}
	return o.plane.Addr()
}

// Handler returns the observability HTTP handler for embedding into an
// application's own server (nil when observability is unconfigured).
func (o *Observability) Handler() http.Handler {
	if o.plane == nil {
		return nil
	}
	return o.plane.Handler()
}

// RegisterCounters merges extra process-level counters into the plane's
// exported metrics surfaces after construction (e.g. a ControlPlane
// publishing adaptive_ctl_* on every enrolled node). No-op when
// observability is unconfigured. Later registrations win on key collisions.
func (o *Observability) RegisterCounters(extra map[string]func() uint64) {
	if o.plane != nil {
		o.plane.RegisterCounters(extra)
	}
}

// TraceTail attaches a live trace subscription. Attach before traffic
// starts to capture from record zero (a later attach surfaces as a leading
// gap when reassembling). The tail ends when the context is canceled, when
// Close is called, or when the node finishes its trace.
func (o *Observability) TraceTail(ctx context.Context) (*TraceTail, error) {
	if o.plane == nil {
		return nil, errObsvDisabled
	}
	sub, err := o.plane.Subscribe()
	if err != nil {
		return nil, err
	}
	t := &TraceTail{sub: sub, closed: make(chan struct{})}
	if ctx.Done() != nil {
		go func() {
			select {
			case <-ctx.Done():
				sub.Cancel()
			case <-t.closed:
			}
		}()
	}
	return t, nil
}

// FlushTrace pushes the recorder's pending tail into the stream and ends
// it; attached tails observe end-of-stream. Call only when the node's
// event loop has quiesced (simulation drained, or provider closed).
func (o *Observability) FlushTrace() {
	if o.plane != nil {
		o.plane.FinishTrace()
	}
}

// TraceArchive returns the in-process reassembly of the streamed trace
// (requires Observe.TraceArchive and a prior FlushTrace).
func (o *Observability) TraceArchive() (*TraceSet, error) {
	if o.plane == nil {
		return nil, errObsvDisabled
	}
	return o.plane.Archive()
}

// Close tears the plane down (flushes the trace, stops the HTTP server).
func (o *Observability) Close() error {
	if o.plane == nil {
		return nil
	}
	return o.plane.Close()
}

// TraceTail is a live trace subscription: a sequence of TraceChunks in
// stream order. Feed them to a reassembler or count them; chunks from one
// shard arrive start-contiguous unless frames were dropped (Dropped).
type TraceTail struct {
	sub    *obsv.Subscriber
	closed chan struct{}
	once   sync.Once
	err    error
}

// Next returns the next chunk; ok is false at end of stream, after Close,
// or on a decode error (check Err).
func (t *TraceTail) Next() (TraceChunk, bool) {
	frame, ok := <-t.sub.Frames()
	if !ok {
		return TraceChunk{}, false
	}
	c, rest, err := trace.DecodeFrame(frame)
	if err == nil && len(rest) != 0 {
		err = errFrameTrailing
	}
	if err != nil {
		t.err = err
		t.Close()
		return TraceChunk{}, false
	}
	return c, true
}

// Err returns the decode error that ended the tail, if any.
func (t *TraceTail) Err() error { return t.err }

// Dropped returns how many frames this tail lost to a full buffer (each
// surfaces as a chunk-start gap).
func (t *TraceTail) Dropped() uint64 { return t.sub.Dropped() }

// Close detaches the tail. Safe to call multiple times.
func (t *TraceTail) Close() {
	t.once.Do(func() {
		t.sub.Cancel()
		close(t.closed)
	})
}
