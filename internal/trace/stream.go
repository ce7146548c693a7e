package trace

import (
	"fmt"
	"sort"
	"sync"
	"sync/atomic"
)

// Continuous trace streaming: the flight recorder's rings are drained out of
// the process while it runs, instead of only being collected post-mortem.
//
// The recorder stays strictly single-writer. When a Stream is installed
// (SetStream), Emit checks a pending-record watermark after each append;
// once crossed, the writer itself copies everything past the watermark into
// a pooled Chunk and hands it to the Stream's queue — so the ring is never
// read concurrently with a write, and the hot path gains exactly one
// predictable branch when streaming is off plus one bulk copy per
// flush-interval when it is on. A chaser goroutine (internal/obsv) drains
// the queue and fans the chunks out to HTTP subscribers and file sinks.
//
// Because the watermark is at most half the ring, a record is always
// streamed before the ring can wrap over it: streaming loses data only when
// the chunk queue overflows (counted, never blocking the writer).

// Chunk is a contiguous run of records from one recorder ring: emit indices
// [Start, Start+len(Records)), oldest first.
type Chunk struct {
	Shard   int
	Start   uint64
	Records []Record
}

// End returns the emit index one past the chunk's last record.
func (c *Chunk) End() uint64 { return c.Start + uint64(len(c.Records)) }

// DefaultStreamQueue is the default chunk-queue depth.
const DefaultStreamQueue = 256

// Stream carries chunks from recorder writers to a single consumer. Multiple
// recorders (the shards of one run) may publish into one Stream; each chunk
// is tagged with its shard. Publishing never blocks: when the queue is full
// the chunk is dropped and counted, keeping a slow consumer from perturbing
// the simulation or the live datapath.
type Stream struct {
	ch      chan *Chunk
	pool    sync.Pool
	dropped atomic.Uint64 // chunks dropped on queue overflow
	records atomic.Uint64 // records successfully queued
}

// NewStream returns a stream with the given queue depth (<= 0 selects
// DefaultStreamQueue).
func NewStream(queue int) *Stream {
	if queue <= 0 {
		queue = DefaultStreamQueue
	}
	return &Stream{ch: make(chan *Chunk, queue)}
}

// Chunks is the consumer side of the stream. The channel is closed by Close.
func (s *Stream) Chunks() <-chan *Chunk { return s.ch }

// Recycle returns a consumed chunk to the writer-side pool. Callers must not
// touch the chunk after recycling it.
func (s *Stream) Recycle(c *Chunk) {
	c.Records = c.Records[:0]
	s.pool.Put(c)
}

// Close ends the stream: the consumer channel is closed after in-flight
// chunks drain. Call only once every publishing recorder has stopped (or
// been Flushed from its writer goroutine).
func (s *Stream) Close() { close(s.ch) }

// DroppedChunks returns how many chunks were lost to queue overflow.
func (s *Stream) DroppedChunks() uint64 { return s.dropped.Load() }

// QueuedRecords returns how many records were successfully queued.
func (s *Stream) QueuedRecords() uint64 { return s.records.Load() }

// get hands the writer a cleared chunk (pooled when possible).
func (s *Stream) get() *Chunk {
	if c, ok := s.pool.Get().(*Chunk); ok && c != nil {
		return c
	}
	return &Chunk{}
}

// publish enqueues a chunk without blocking; a full queue drops it. The
// record count is read before the send: ownership transfers to the consumer
// the moment the chunk lands on the channel.
func (s *Stream) publish(c *Chunk) bool {
	n := uint64(len(c.Records))
	select {
	case s.ch <- c:
		s.records.Add(n)
		return true
	default:
		s.dropped.Add(1)
		s.Recycle(c)
		return false
	}
}

// --- recorder integration (writer side) ---

// SetStream installs a streaming sink on the recorder. flushEvery is the
// pending-record watermark that triggers a writer-side flush; it must be at
// most half the ring so records are streamed before wrap-around can overwrite
// them (<= 0 selects a quarter of the ring). Install before recording starts:
// the fields it sets are owned by the writer goroutine afterwards.
func (r *Recorder) SetStream(s *Stream, flushEvery int) error {
	if s == nil {
		r.stream = nil
		return nil
	}
	if flushEvery <= 0 {
		flushEvery = len(r.buf) / 4
	}
	if flushEvery > len(r.buf)/2 {
		return fmt.Errorf("trace: flush watermark %d exceeds half the ring (%d records)", flushEvery, len(r.buf))
	}
	if flushEvery < 1 {
		flushEvery = 1
	}
	r.stream = s
	r.flushEvery = uint64(flushEvery)
	r.low = r.n
	return nil
}

// Flush hands any pending (un-streamed) records to the stream. It must run
// on the writer goroutine, or after the writer has quiesced; the collection
// path calls it once a run completes so the stream carries the ring's tail.
func (r *Recorder) Flush() {
	if r == nil || r.stream == nil || r.n == r.low {
		return
	}
	r.flushPending()
}

// flushPending copies records [low, n) into a pooled chunk and publishes it.
func (r *Recorder) flushPending() {
	c := r.stream.get()
	c.Shard = r.shard
	c.Start = r.low
	need := int(r.n - r.low)
	if cap(c.Records) < need {
		c.Records = make([]Record, need)
	}
	c.Records = c.Records[:need]
	start := r.low & r.mask
	end := r.n & r.mask
	if start < end {
		copy(c.Records, r.buf[start:end])
	} else {
		head := copy(c.Records, r.buf[start:])
		copy(c.Records[head:], r.buf[:end])
	}
	r.low = r.n
	r.stream.publish(c)
}

// --- reassembly ---

// SetBuilder reassembles chunks — a live tail's, or a trace file's frames —
// into a Set, verifying per-shard contiguity: every chunk must start exactly
// where the previous one for its shard ended, so any queue overflow or
// transport loss is detected instead of silently producing a holey trace. A
// shard's first chunk may start anywhere: a ring that wrapped before it was
// written, or a tail attached after the run started, is missing a prefix, and
// the Set says so as Total > len(Records).
type SetBuilder struct {
	shards map[int]*shardBuild
}

type shardBuild struct {
	next    uint64
	records []Record
}

// NewSetBuilder returns an empty builder.
func NewSetBuilder() *SetBuilder {
	return &SetBuilder{shards: make(map[int]*shardBuild)}
}

// Add folds in one chunk; it fails on a per-shard gap or overlap.
func (b *SetBuilder) Add(c Chunk) error {
	sb := b.shards[c.Shard]
	if sb == nil {
		sb = &shardBuild{next: c.Start}
		b.shards[c.Shard] = sb
	}
	if c.Start != sb.next {
		return fmt.Errorf("trace: shard %d gap: expected record %d, got %d (stream overflow?)", c.Shard, sb.next, c.Start)
	}
	sb.records = append(sb.records, c.Records...)
	sb.next = c.End()
	return nil
}

// Set renders the assembled trace, shards in ascending id order. ShardTrace
// totals are the stream end positions, matching Recorder.Total for a fully
// flushed run.
func (b *SetBuilder) Set() *Set {
	ids := make([]int, 0, len(b.shards))
	for id := range b.shards {
		ids = append(ids, id)
	}
	sort.Ints(ids)
	s := &Set{}
	for _, id := range ids {
		sb := b.shards[id]
		s.Shards = append(s.Shards, ShardTrace{Shard: id, Total: sb.next, Records: sb.records})
	}
	return s
}
