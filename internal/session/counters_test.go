package session

import (
	"maps"
	"slices"
	"sync"
	"testing"

	"adaptive/internal/mechanism"
	"adaptive/internal/unites"
)

// nameSink is the by-name MetricSink: every Count is a map update under the
// name, which is all a Recorder did before counters had cells.
type nameSink struct {
	mechanism.NopSink
	counts map[string]uint64
}

func (n *nameSink) Count(name string, d uint64) { n.counts[name] += d }

func recorderCounts(r *unites.Recorder) map[string]uint64 {
	out := map[string]uint64{}
	for _, n := range r.CounterNames() {
		out[n] = r.Counter(n)
	}
	return out
}

// sessionPair wires a sender and a receiver back to back over zero-latency
// loops, each with the given sink.
func sessionPair(t *testing.T, spec mechanism.Spec, a, b mechanism.MetricSink) (*Session, *Session) {
	t.Helper()
	outA, outB := &loopOut{}, &loopOut{}
	sa, sb := newTestSession(t, spec, outA), newTestSession(t, spec, outB)
	outA.peer, outB.peer = sb, sa
	sa.SetMetricSink(a)
	sb.SetMetricSink(b)
	sb.SetReceiver(func(d Delivery) { d.Msg.Release() })
	return sa, sb
}

// TestCellCountersMatchByNameCounters runs one scripted exchange twice: over
// Recorders, where the per-PDU counters go through cells, and over by-name
// sinks. After every step — before the first PDU included — both ends must
// list the same counter names with the same values: a counter enters the
// exports at its first increment, not when the session opens or resolves it.
func TestCellCountersMatchByNameCounters(t *testing.T) {
	for _, rec := range []mechanism.RecoveryKind{mechanism.RecoverySelectiveRepeat, mechanism.RecoveryFEC, mechanism.RecoveryNone} {
		spec := mechanism.DefaultSpec()
		spec.Recovery, spec.MSS, spec.FECGroup = rec, 100, 4
		ra, rb := unites.NewRecorder("a"), unites.NewRecorder("b")
		na, nb := &nameSink{counts: map[string]uint64{}}, &nameSink{counts: map[string]uint64{}}
		ca, cb := sessionPair(t, spec, ra, rb)
		ma, mb := sessionPair(t, spec, na, nb)
		check := func(step string) {
			t.Helper()
			if got := recorderCounts(ra); !maps.Equal(got, na.counts) {
				t.Fatalf("%v, %s: sender exports %v, by-name %v", rec, step, got, na.counts)
			}
			if got := recorderCounts(rb); !maps.Equal(got, nb.counts) {
				t.Fatalf("%v, %s: receiver exports %v, by-name %v", rec, step, got, nb.counts)
			}
		}
		ca.Open()
		cb.Accept()
		ma.Open()
		mb.Accept()
		check("before the first PDU")
		if n := len(ra.CounterNames()) + len(rb.CounterNames()); n != 0 {
			t.Fatalf("%v: %d counters exported before the first PDU", rec, n)
		}
		for i, size := range []int{10, 0, 350, 1} {
			ca.Send(make([]byte, size))
			ma.Send(make([]byte, size))
			check("after send " + string(rune('1'+i)))
		}
		want := []string{"bytes.sent", "pdu.sent"}
		if rec != mechanism.RecoveryNone {
			want = []string{"bytes.sent", "pdu.received", "pdu.sent"} // acks come back
		}
		if got := slices.DeleteFunc(ra.CounterNames(), func(n string) bool { return n[:4] == "rel." }); !slices.Equal(got, want) {
			t.Fatalf("%v: sender exports %v, want %v", rec, got, want)
		}
	}
}

// TestSetMetricSinkReResolves: cells belong to a sink; replacing the sink
// (the TMC filter is installed this way) must send later counts to the new
// one, through its filter.
func TestSetMetricSinkReResolves(t *testing.T) {
	spec := mechanism.DefaultSpec()
	r1 := unites.NewRecorder("one")
	a, _ := sessionPair(t, spec, r1, nil)
	a.Open()
	a.Send(make([]byte, 10))
	sent := r1.Counter("pdu.sent")
	if sent == 0 {
		t.Fatal("nothing counted on the first recorder")
	}
	r2 := unites.NewRecorder("two")
	a.SetMetricSink(&unites.FilteredSink{Next: r2, Allow: []string{"pdu.sent"}})
	a.Send(make([]byte, 10))
	if r1.Counter("pdu.sent") != sent {
		t.Fatal("the replaced sink still counts")
	}
	if r2.Counter("pdu.sent") != 1 || r2.Counter("bytes.sent") != 0 {
		t.Fatalf("filtered sink: pdu.sent=%d bytes.sent=%d, want 1 and 0",
			r2.Counter("pdu.sent"), r2.Counter("bytes.sent"))
	}
}

func TestCountZeroAlloc(t *testing.T) {
	spec := mechanism.DefaultSpec()
	a, _ := sessionPair(t, spec, unites.NewRecorder("a"), nil)
	a.count(ctrPDUSent, 1) // resolves the cell
	if allocs := testing.AllocsPerRun(1000, func() { a.count(ctrPDUSent, 1) }); allocs != 0 {
		t.Fatalf("cell counter: %v allocs/op, want 0", allocs)
	}
}

// TestSnapshotWhileCounting scrapes a repository from another goroutine while
// a session pair counts into it (run under -race): the cells are what both
// sides touch, and every counter a scrape sees must be a value the session
// had reached, never past the final one.
func TestSnapshotWhileCounting(t *testing.T) {
	repo := unites.NewRepository()
	spec := mechanism.DefaultSpec()
	spec.MSS = 100
	a, b := sessionPair(t, spec, repo.SinkFor("a")(7), repo.SinkFor("b")(7))
	a.Open()
	b.Accept()
	stop := make(chan struct{})
	var wg sync.WaitGroup
	var seen uint64
	wg.Add(1)
	go func() {
		defer wg.Done()
		for {
			select {
			case <-stop:
				return
			default:
			}
			snap := repo.Snapshot()
			v := snap.Systemwide["app.delivered_pdus"]
			if v < seen {
				t.Errorf("delivered count went backwards: %d after %d", v, seen)
				return
			}
			seen = v
			_ = repo.TotalCounter("pdu.sent")
		}
	}()
	const msgs = 2000
	for i := 0; i < msgs; i++ {
		a.Send(make([]byte, 250)) // three segments each
	}
	close(stop)
	wg.Wait()
	if got := repo.TotalCounter("app.delivered_pdus"); got != 3*msgs {
		t.Fatalf("delivered %d PDUs, want %d", got, 3*msgs)
	}
	if got := repo.HostCounter("b", "app.delivered_bytes"); got != 250*msgs {
		t.Fatalf("delivered %d bytes, want %d", got, 250*msgs)
	}
}
