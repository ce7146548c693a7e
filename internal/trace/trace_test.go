package trace

import (
	"bytes"
	"encoding/binary"
	"encoding/json"
	"math"
	"runtime"
	"strings"
	"testing"
	"time"
)

func TestRecorderRingWrap(t *testing.T) {
	r := NewRecorder(7) // rounds up to 8
	for i := 0; i < 20; i++ {
		r.Emit(time.Duration(i), KTimerFire, 0, uint64(i), 0, 0)
	}
	if got := r.Total(); got != 20 {
		t.Fatalf("Total = %d, want 20", got)
	}
	recs := r.Records()
	if len(recs) != 8 {
		t.Fatalf("retained %d records, want 8", len(recs))
	}
	for i, rec := range recs {
		if want := uint64(12 + i); rec.A != want {
			t.Fatalf("record %d: A = %d, want %d (oldest-first after wrap)", i, rec.A, want)
		}
	}
}

func TestRecorderSampling(t *testing.T) {
	r := NewRecorder(1 << 10)
	if err := r.SetSample(3); err == nil {
		t.Fatal("SetSample(3) should reject non-power-of-two rates")
	}
	if err := r.SetSample(4); err != nil {
		t.Fatalf("SetSample(4): %v", err)
	}
	for i := uint64(0); i < 64; i++ {
		r.EmitKeyed(i, 0, KPDUSend, 1, i, 0, 0)
	}
	if got := r.Total(); got != 16 {
		t.Fatalf("1/4 sample of 64 keys kept %d, want 16", got)
	}
	for _, rec := range r.Records() {
		if rec.A%4 != 0 {
			t.Fatalf("sampled record has key %d; the kept subset must be deterministic (key %% 4 == 0)", rec.A)
		}
	}
	// Structural Emit ignores sampling.
	r.Emit(0, KFault, 0, FaultLinkDown, 0, 0)
	if got := r.Total(); got != 17 {
		t.Fatalf("Emit after sampling: total = %d, want 17", got)
	}
}

func TestNilRecorderIsSafe(t *testing.T) {
	var r *Recorder
	r.Emit(0, KTimerFire, 0, 1, 2, 3)
	r.EmitKeyed(9, 0, KPDUSend, 1, 1, 2, 3)
	if r.Total() != 0 || r.Len() != 0 || r.Records() != nil {
		t.Fatal("nil recorder must be an inert no-op")
	}
	r.Reset()
	if sh := r.Snapshot(); sh.Total != 0 || len(sh.Records) != 0 {
		t.Fatal("nil recorder snapshot must be empty")
	}
}

func TestIORoundTrip(t *testing.T) {
	a := NewRecorder(16)
	a.SetShard(0)
	b := NewRecorder(16)
	b.SetShard(1)
	for i := 0; i < 24; i++ { // wraps a's ring
		a.Emit(time.Duration(i)*time.Millisecond, KLinkTx, 7, uint64(i), 1500, 0)
	}
	b.Emit(time.Second, KSegueCommit, 42, SlotRecovery, HashName("none"), HashName("selrepeat"))

	set := Collect(a, b)
	var buf bytes.Buffer
	if _, err := set.WriteTo(&buf); err != nil {
		t.Fatalf("WriteTo: %v", err)
	}
	file := buf.Bytes()
	got, err := ReadSet(bytes.NewReader(file))
	if err != nil {
		t.Fatalf("ReadSet: %v", err)
	}
	if d, same := Diff(set, got); !same {
		t.Fatalf("round trip changed the trace: %v", d)
	}
	// The wrapped ring reads back as a shard that misses its first 8 records.
	if got.Shards[0].Total != 24 || len(got.Shards[0].Records) != 16 {
		t.Fatalf("shard 0 total/retained = %d/%d, want 24/16",
			got.Shards[0].Total, len(got.Shards[0].Records))
	}
	if got.Shards[1].Total != 1 || len(got.Shards[1].Records) != 1 {
		t.Fatalf("shard 1 total/retained = %d/%d, want 1/1",
			got.Shards[1].Total, len(got.Shards[1].Records))
	}

	// A file cut anywhere after the stream header — inside a frame header or
	// inside a frame's records — is an error, not a shorter trace.
	for _, cut := range []int{streamHeaderSize + 5, streamHeaderSize + frameHeaderSize + recordSize + 1, len(file) - 1} {
		if _, err := ReadSet(bytes.NewReader(file[:cut])); err == nil {
			t.Errorf("ReadSet accepted a file truncated to %d of %d bytes", cut, len(file))
		}
	}

	// A tail that attached after the run started is the same container with a
	// first frame past record zero: it reassembles, and shows as a missed
	// prefix (what `adaptivetrace -tail` refuses).
	buf.Reset()
	WriteStreamHeader(&buf)
	buf.Write(AppendFrame(nil, &Chunk{Shard: 3, Start: 5, Records: make([]Record, 2)}))
	buf.Write(AppendFrame(nil, &Chunk{Shard: 3, Start: 7, Records: make([]Record, 1)}))
	late, err := ReadSet(&buf)
	if err != nil {
		t.Fatalf("ReadSet(late tail): %v", err)
	}
	if sh := late.Shards[0]; sh.Shard != 3 || sh.Total != 8 || len(sh.Records) != 3 {
		t.Fatalf("late tail = shard %d total %d retained %d, want 3/8/3", sh.Shard, sh.Total, len(sh.Records))
	}
}

func TestReadSetRejectsGarbage(t *testing.T) {
	if _, err := ReadSet(strings.NewReader("not a trace")); err == nil {
		t.Fatal("ReadSet accepted garbage input")
	}
}

// TestFrameCountIsBounded feeds the reader a frame header that announces
// 2^32-1 records (171 GB of them) in front of a two-record body. The reader
// must report a truncated frame having allocated for the bytes it was given,
// not for the count it was told.
func TestFrameCountIsBounded(t *testing.T) {
	var in bytes.Buffer
	WriteStreamHeader(&in)
	frame := AppendFrame(nil, &Chunk{Shard: 1, Start: 0, Records: make([]Record, 2)})
	binary.LittleEndian.PutUint32(frame[12:16], math.MaxUint32)
	in.Write(frame)
	hostile := in.Bytes()

	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	if _, err := ReadSet(bytes.NewReader(hostile)); err == nil {
		t.Fatal("ReadSet accepted a frame whose count exceeds its bytes")
	}
	if _, _, err := DecodeFrame(hostile[streamHeaderSize:]); err == nil {
		t.Fatal("DecodeFrame accepted a frame whose count exceeds its bytes")
	}
	runtime.ReadMemStats(&after)
	if grew := after.TotalAlloc - before.TotalAlloc; grew > 1<<20 {
		t.Fatalf("decoding a %d-byte hostile frame allocated %d bytes", len(hostile), grew)
	}
}

// FuzzFrame: the frame decoder never panics, and whatever it decodes
// re-encodes to exactly the bytes it consumed.
func FuzzFrame(f *testing.F) {
	f.Add([]byte{})
	f.Add(AppendFrame(nil, &Chunk{Shard: 5}))
	f.Add(AppendFrame(nil, &Chunk{Shard: 1, Start: 9, Records: []Record{
		{At: time.Millisecond, A: 1, B: 2, C: 3, ID: 7, Kind: KPDUSend}, {At: -1, Kind: KDeliver}}}))
	f.Add(append(AppendFrame(nil, &Chunk{Records: make([]Record, 1)}), 0xff, 0xfe))
	f.Add([]byte{0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0xff, 0xff, 0xff, 0xff})
	f.Fuzz(func(t *testing.T, b []byte) {
		c, rest, err := DecodeFrame(b)
		if err != nil {
			return
		}
		if again := AppendFrame(nil, &c); !bytes.Equal(again, b[:len(b)-len(rest)]) {
			t.Fatalf("frame re-encodes to %x, decoded from %x", again, b[:len(b)-len(rest)])
		}
	})
}

func TestDiff(t *testing.T) {
	mk := func(vals ...uint64) *Set {
		r := NewRecorder(64)
		for i, v := range vals {
			r.Emit(time.Duration(i), KTimerFire, 0, v, 0, 0)
		}
		return Collect(r)
	}
	if d, same := Diff(mk(1, 2, 3), mk(1, 2, 3)); !same {
		t.Fatalf("identical traces reported divergent: %v", d)
	}
	d, same := Diff(mk(1, 2, 3), mk(1, 9, 3))
	if same {
		t.Fatal("differing traces reported identical")
	}
	if d.Shard != 0 || d.Index != 1 || d.A.A != 2 || d.B.A != 9 {
		t.Fatalf("wrong divergence location: %v", d)
	}
	d, same = Diff(mk(1, 2), mk(1, 2, 3))
	if same || d.Index != 2 || d.A != nil || d.B == nil {
		t.Fatalf("length divergence not localized: %v", d)
	}
	if _, same = Diff(&Set{Shards: make([]ShardTrace, 1)}, &Set{Shards: make([]ShardTrace, 2)}); same {
		t.Fatal("shard-count mismatch reported identical")
	}
}

func TestChromeExportIsValidJSON(t *testing.T) {
	r := NewRecorder(64)
	r.SetShard(3)
	r.Emit(1*time.Millisecond, KPDUSend, 5, 1, 1, 1500)
	r.Emit(2*time.Millisecond, KPDURecv, 5, 1, 1, 1480)
	r.Emit(3*time.Millisecond, KSegueCommit, 5, SlotRecovery, HashName("none"), HashName("gobackn"))
	r.Emit(4*time.Millisecond, KLinkDrop, 2, DropQueue, 1500, 0)
	r.Emit(5*time.Millisecond, KFault, 2, FaultLinkDown, 0, 0)

	var buf bytes.Buffer
	if err := Collect(r).WriteChrome(&buf, ChromeOptions{Spans: true, DataType: 1}); err != nil {
		t.Fatalf("WriteChrome: %v", err)
	}
	var doc struct {
		TraceEvents []map[string]any `json:"traceEvents"`
	}
	if err := json.Unmarshal(buf.Bytes(), &doc); err != nil {
		t.Fatalf("export is not valid JSON: %v", err)
	}
	var instants, spans, meta int
	for _, ev := range doc.TraceEvents {
		switch ev["ph"] {
		case "i":
			instants++
		case "X":
			spans++
		case "M":
			meta++
		}
	}
	if instants != 5 {
		t.Fatalf("instant events = %d, want 5", instants)
	}
	if !strings.Contains(buf.String(), `"fault":"link-down"`) {
		t.Fatal("fault record exported without its name")
	}
	if spans != 1 {
		t.Fatalf("span events = %d, want 1 (pdu.send 1 -> pdu.recv 1)", spans)
	}
	if meta == 0 {
		t.Fatal("missing process_name metadata event")
	}

	// Kind filter drops link events.
	buf.Reset()
	opt := ChromeOptions{Kinds: map[Kind]bool{KPDUSend: true}}
	if err := Collect(r).WriteChrome(&buf, opt); err != nil {
		t.Fatalf("WriteChrome filtered: %v", err)
	}
	if strings.Contains(buf.String(), "link.drop") {
		t.Fatal("kind filter leaked link.drop events")
	}
}

func TestKindNamesRoundTrip(t *testing.T) {
	for k := KTimerFire; k < kindCount; k++ {
		name := k.String()
		if strings.HasPrefix(name, "kind(") {
			t.Fatalf("kind %d has no name", k)
		}
		back, ok := KindByName(name)
		if !ok || back != k {
			t.Fatalf("KindByName(%q) = %v, %v; want %v", name, back, ok, k)
		}
	}
	if _, ok := KindByName("no.such.kind"); ok {
		t.Fatal("KindByName accepted an unknown name")
	}
}

// TestEmitZeroAlloc pins the per-hook price the data path pays: a disabled
// hook (nil recorder) is one branch, an enabled one a ring store, and neither
// touches the heap.
func TestEmitZeroAlloc(t *testing.T) {
	var i uint64
	for name, r := range map[string]*Recorder{"disabled": nil, "enabled": NewRecorder(1 << 10)} {
		if allocs := testing.AllocsPerRun(1000, func() {
			i++
			r.EmitKeyed(i, time.Duration(i), KPDUSend, 1, i, 1, 1500)
		}); allocs != 0 {
			t.Errorf("%s hook: %v allocs/op, want 0", name, allocs)
		}
	}
}
