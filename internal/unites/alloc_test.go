package unites

import "testing"

// The metering hot path — one Distribution.Add per delivered message — must
// not allocate once the distribution is warm, or many-session soaks pay a GC
// tax proportional to traffic. This pins that budget at exactly zero.

// TestRecorderSampleSteadyStateZeroAlloc: the first sample in a new octave
// grows the histogram window (one allocation per octave ever seen); once the
// window covers the values seen, Distribution.Add and Recorder.Sample are
// in-place accumulation.
func TestRecorderSampleSteadyStateZeroAlloc(t *testing.T) {
	d := NewDistribution()
	r := NewRecorder("host-a/conn-00000001")
	for i := 0; i < 97; i++ {
		d.Add(float64(i) * 1e-3)
		r.Sample("transport.rtt", float64(i)*1e-3)
	}
	var i int
	if allocs := testing.AllocsPerRun(1000, func() {
		d.Add(float64(i%97) * 1e-3)
		i++
	}); allocs != 0 {
		t.Fatalf("Distribution.Add inside the covered window: %v allocs/op, want 0", allocs)
	}
	if allocs := testing.AllocsPerRun(1000, func() {
		r.Sample("transport.rtt", float64(i%97)*1e-3)
		i++
	}); allocs != 0 {
		t.Fatalf("Recorder.Sample inside the covered window: %v allocs/op, want 0", allocs)
	}
}

func TestCounterCellZeroAlloc(t *testing.T) {
	r := NewRecorder("host-a/conn-00000001")
	c := r.Cell("pdu.sent")
	if allocs := testing.AllocsPerRun(1000, func() { c.Add(1) }); allocs != 0 {
		t.Fatalf("Cell.Add: %v allocs/op, want 0", allocs)
	}
	// The by-name entry reaches the same cell without allocating once it
	// exists.
	if allocs := testing.AllocsPerRun(1000, func() { r.Count("pdu.sent", 1) }); allocs != 0 {
		t.Fatalf("Recorder.Count on an existing counter: %v allocs/op, want 0", allocs)
	}
	if got := r.Counter("pdu.sent"); got != 2002 {
		t.Fatalf("counter = %d after 1001 adds by cell and 1001 by name, want 2002", got)
	}
}
