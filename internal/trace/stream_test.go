package trace

import (
	"bytes"
	"reflect"
	"testing"
	"time"
)

// drain collects every chunk from a stream into a builder on a background
// goroutine, returning a wait function.
func drain(t *testing.T, s *Stream, b *SetBuilder) func() {
	t.Helper()
	done := make(chan struct{})
	go func() {
		defer close(done)
		for c := range s.Chunks() {
			if err := b.Add(*c); err != nil {
				t.Errorf("builder: %v", err)
			}
			s.Recycle(c)
		}
	}()
	return func() { <-done }
}

func emitN(r *Recorder, n int) {
	for i := 0; i < n; i++ {
		r.Emit(time.Duration(i)*time.Microsecond, KTimerFire, uint32(i), uint64(i), 0, 0)
	}
}

func TestStreamFlushAtWatermark(t *testing.T) {
	s := NewStream(16)
	r := NewRecorder(64)
	if err := r.SetStream(s, 8); err != nil {
		t.Fatal(err)
	}
	emitN(r, 7)
	select {
	case c := <-s.Chunks():
		t.Fatalf("chunk published below watermark: %d records", len(c.Records))
	default:
	}
	emitN(r, 1)
	select {
	case c := <-s.Chunks():
		if c.Start != 0 || len(c.Records) != 8 {
			t.Fatalf("chunk = [%d, %d), want [0, 8)", c.Start, c.End())
		}
		s.Recycle(c)
	default:
		t.Fatal("no chunk published at watermark")
	}
}

func TestStreamWatermarkValidation(t *testing.T) {
	r := NewRecorder(64)
	if err := r.SetStream(NewStream(1), 64); err == nil {
		t.Fatal("watermark equal to ring size accepted; wrap could overwrite unstreamed records")
	}
	if err := r.SetStream(NewStream(1), 32); err != nil {
		t.Fatalf("half-ring watermark rejected: %v", err)
	}
	// Default watermark is a quarter of the ring.
	r2 := NewRecorder(64)
	if err := r2.SetStream(NewStream(1), 0); err != nil {
		t.Fatal(err)
	}
	if r2.flushEvery != 16 {
		t.Fatalf("default watermark = %d, want 16", r2.flushEvery)
	}
}

// The central streaming guarantee: a streamed run that saw ring wrap-around
// (far more records than the ring holds) reassembles into the complete,
// in-order record sequence — not just the retained tail.
func TestStreamSurvivesRingWrap(t *testing.T) {
	const total = 10_000 // ring is 256: wraps ~39 times
	s := NewStream(0)
	r := NewRecorder(256)
	r.SetShard(3)
	if err := r.SetStream(s, 0); err != nil {
		t.Fatal(err)
	}
	b := NewSetBuilder()
	wait := drain(t, s, b)

	emitN(r, total)
	r.Flush()
	s.Close()
	wait()

	if s.DroppedChunks() != 0 {
		t.Fatalf("dropped %d chunks with a live consumer", s.DroppedChunks())
	}
	set := b.Set()
	if len(set.Shards) != 1 || set.Shards[0].Shard != 3 {
		t.Fatalf("shards = %+v", set.Shards)
	}
	sh := set.Shards[0]
	if sh.Total != total || len(sh.Records) != total {
		t.Fatalf("reassembled %d/%d records (total=%d)", len(sh.Records), total, sh.Total)
	}
	for i, rec := range sh.Records {
		if rec.ID != uint32(i) || rec.A != uint64(i) {
			t.Fatalf("record %d out of order: %+v", i, rec)
		}
	}
}

// With no wrap, the streamed set must be byte-identical to post-mortem
// collection — so trace.Diff can gate a tailed recording against an archive.
func TestStreamMatchesCollect(t *testing.T) {
	s := NewStream(0)
	r := NewRecorder(1 << 12)
	if err := r.SetStream(s, 64); err != nil {
		t.Fatal(err)
	}
	b := NewSetBuilder()
	wait := drain(t, s, b)

	emitN(r, 1000)
	r.Flush()
	s.Close()
	wait()

	streamed := b.Set()
	collected := Collect(r)
	if div, same := Diff(collected, streamed); !same {
		t.Fatalf("streamed set diverges from Collect: %+v", div)
	}
}

func TestStreamDropsWhenQueueFull(t *testing.T) {
	s := NewStream(1) // no consumer: second publish must drop
	r := NewRecorder(64)
	if err := r.SetStream(s, 4); err != nil {
		t.Fatal(err)
	}
	emitN(r, 8)
	if got := s.DroppedChunks(); got != 1 {
		t.Fatalf("DroppedChunks = %d, want 1", got)
	}
	if got := s.QueuedRecords(); got != 4 {
		t.Fatalf("QueuedRecords = %d, want 4", got)
	}
}

func TestSetBuilderDetectsGap(t *testing.T) {
	b := NewSetBuilder()
	if err := b.Add(Chunk{Shard: 0, Start: 0, Records: make([]Record, 4)}); err != nil {
		t.Fatal(err)
	}
	if err := b.Add(Chunk{Shard: 0, Start: 8, Records: make([]Record, 4)}); err == nil {
		t.Fatal("gap [4, 8) not detected")
	}
	// A shard first seen past record zero is a missed prefix, not a gap: it
	// is accepted and shows in the Set as Total > len(Records).
	if err := b.Add(Chunk{Shard: 1, Start: 2, Records: make([]Record, 3)}); err != nil {
		t.Fatalf("late attach refused: %v", err)
	}
	if sh := b.Set().Shards[1]; sh.Total != 5 || len(sh.Records) != 3 {
		t.Fatalf("late-attached shard = total %d, %d records; want 5, 3", sh.Total, len(sh.Records))
	}
}

func TestFrameRoundTrip(t *testing.T) {
	chunks := []Chunk{
		{Shard: 0, Start: 0, Records: []Record{
			{At: time.Millisecond, A: 1, B: 2, C: 3, ID: 7, Kind: KPDUSend},
			{At: 2 * time.Millisecond, A: 4, ID: 7, Kind: KAckSend},
		}},
		{Shard: 5, Start: 0, Records: nil}, // empty frames are legal
		{Shard: 0, Start: 2, Records: []Record{
			{At: 3 * time.Millisecond, A: 9, ID: 8, Kind: KDeliver},
		}},
	}
	var buf bytes.Buffer
	if err := WriteStreamHeader(&buf); err != nil {
		t.Fatal(err)
	}
	var frame []byte
	for i := range chunks {
		frame = AppendFrame(frame[:0], &chunks[i])
		buf.Write(frame)
	}

	rest := buf.Bytes()[streamHeaderSize:]
	for i := range chunks {
		var got Chunk
		var err error
		if got, rest, err = DecodeFrame(rest); err != nil {
			t.Fatalf("frame %d: %v", i, err)
		}
		want := chunks[i]
		if got.Shard != want.Shard || got.Start != want.Start || len(got.Records) != len(want.Records) {
			t.Fatalf("frame %d header = {%d %d %d}, want {%d %d %d}",
				i, got.Shard, got.Start, len(got.Records), want.Shard, want.Start, len(want.Records))
		}
		for j := range want.Records {
			if !reflect.DeepEqual(got.Records[j], want.Records[j]) {
				t.Fatalf("frame %d record %d = %+v, want %+v", i, j, got.Records[j], want.Records[j])
			}
		}
	}
	if len(rest) != 0 {
		t.Fatalf("%d bytes left after the last frame", len(rest))
	}
	set, err := ReadSet(&buf)
	if err != nil {
		t.Fatal(err)
	}
	if len(set.Shards) != 2 || set.Shards[0].Total != 3 || set.Shards[1].Shard != 5 {
		t.Fatalf("ReadSet of the same stream = %+v", set.Shards)
	}
}

func TestFrameReaderRejectsBadHeader(t *testing.T) {
	if _, err := ReadSet(bytes.NewReader([]byte("ADTRxx"))); err == nil {
		t.Fatal("the retired trace-file magic accepted")
	}
	if _, err := ReadSet(bytes.NewReader([]byte("ADTS\x02\x00"))); err == nil {
		t.Fatal("unknown stream version accepted")
	}
}

func TestResetClearsStreamWatermark(t *testing.T) {
	s := NewStream(4)
	r := NewRecorder(64)
	if err := r.SetStream(s, 8); err != nil {
		t.Fatal(err)
	}
	emitN(r, 10)
	r.Reset()
	emitN(r, 8)
	// Drain: both chunks must start at their post-reset positions.
	c1 := <-s.Chunks()
	if c1.Start != 0 || len(c1.Records) != 8 {
		t.Fatalf("pre-reset chunk = [%d, %d)", c1.Start, c1.End())
	}
	c2 := <-s.Chunks()
	if c2.Start != 0 || len(c2.Records) != 8 {
		t.Fatalf("post-reset chunk = [%d, %d)", c2.Start, c2.End())
	}
}
