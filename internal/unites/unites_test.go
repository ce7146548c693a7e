package unites

import (
	"math"
	"sort"
	"strings"
	"testing"
	"testing/quick"
)

func TestDistributionMoments(t *testing.T) {
	d := NewDistribution()
	for _, v := range []float64{1, 2, 3, 4, 5} {
		d.Add(v)
	}
	if d.Count != 5 || d.Min != 1 || d.Max != 5 {
		t.Fatalf("count=%d min=%v max=%v", d.Count, d.Min, d.Max)
	}
	if d.Mean() != 3 {
		t.Fatalf("mean %v", d.Mean())
	}
	if math.Abs(d.StdDev()-math.Sqrt(2)) > 1e-9 {
		t.Fatalf("stddev %v", d.StdDev())
	}
}

func TestDistributionQuantiles(t *testing.T) {
	d := NewDistribution()
	for i := 1; i <= 100; i++ {
		d.Add(float64(i))
	}
	// Every answer is the histogram's, so it is within one bucket width
	// (1/histSub of the value) of the exact order statistic, and clamped to
	// the observed range.
	for _, c := range []struct{ q, want float64 }{{0, 1}, {0.5, 50}, {0.99, 99}, {1, 100}} {
		got := d.Quantile(c.q)
		if math.Abs(got-c.want) > c.want/histSub {
			t.Errorf("Quantile(%g) = %g, want %g within one bucket", c.q, got, c.want)
		}
		if got < d.Min || got > d.Max {
			t.Errorf("Quantile(%g) = %g outside [%g, %g]", c.q, got, d.Min, d.Max)
		}
	}
	// A single-valued distribution reports its exact value at every rank.
	one := NewDistribution()
	one.Add(2.42e-3)
	for _, q := range []float64{0, 0.5, 0.999, 1} {
		if got := one.Quantile(q); got != 2.42e-3 {
			t.Errorf("single-valued Quantile(%g) = %g, want 2.42e-3", q, got)
		}
	}
}

func TestDistributionEmptySafe(t *testing.T) {
	d := NewDistribution()
	if d.Mean() != 0 || d.StdDev() != 0 || d.Quantile(0.5) != 0 {
		t.Fatal("empty distribution not zero-valued")
	}
}

// Property: quantiles are monotone in q and bounded by min/max, whatever is
// offered — non-finite values included, which count as Invalid and nothing
// else.
func TestQuantileMonotoneProperty(t *testing.T) {
	f := func(vals []float64, qa, qb uint8) bool {
		d := NewDistribution()
		var finite uint64
		for _, v := range vals {
			d.Add(v)
			if !math.IsNaN(v) && !math.IsInf(v, 0) {
				finite++
			}
		}
		if d.Count != finite || d.Invalid != uint64(len(vals))-finite {
			return false
		}
		a := float64(qa%101) / 100
		b := float64(qb%101) / 100
		if a > b {
			a, b = b, a
		}
		va, vb := d.Quantile(a), d.Quantile(b)
		return va <= vb && va >= d.Min && vb <= d.Max
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 500}); err != nil {
		t.Fatal(err)
	}
}

func TestRecorderCountersAndGauges(t *testing.T) {
	r := NewRecorder("test")
	r.Count("pdu.sent", 3)
	r.Count("pdu.sent", 2)
	r.Gauge("win.size", 42)
	r.Sample("rtt", 0.01)
	r.Sample("rtt", 0.02)
	if r.Counter("pdu.sent") != 5 {
		t.Fatalf("counter %d", r.Counter("pdu.sent"))
	}
	if r.GaugeValue("win.size") != 42 {
		t.Fatal("gauge lost")
	}
	if d := r.Dist("rtt"); d == nil || d.Count != 2 {
		t.Fatal("distribution lost")
	}
	if r.Counter("absent") != 0 || r.Dist("absent") != nil {
		t.Fatal("absent metrics not zero")
	}
	names := r.CounterNames()
	if len(names) != 1 || names[0] != "pdu.sent" {
		t.Fatalf("names %v", names)
	}
}

// TestCellIsTheNamedCounter: Cell and Count address one counter, a Count of
// zero still creates it (as a by-name map update always did), and the snapshot
// lists it from creation on.
func TestCellIsTheNamedCounter(t *testing.T) {
	rp := NewRepository()
	r := rp.SinkFor("h")(1)
	if len(r.CounterNames()) != 0 || len(rp.Snapshot().Systemwide) != 0 {
		t.Fatal("a fresh recorder exports counters")
	}
	c := r.Cell("pdu.sent")
	if c != r.Cell("pdu.sent") {
		t.Fatal("Cell returned two cells for one name")
	}
	c.Add(4)
	r.Count("pdu.sent", 1)
	r.Count("rel.gaps_abandoned", 0)
	snap := rp.Snapshot()
	if v, ok := snap.Systemwide["pdu.sent"]; !ok || v != 5 {
		t.Fatalf("pdu.sent exported as %d (present %v), want 5", v, ok)
	}
	if v, ok := snap.Connections[0].Counters["rel.gaps_abandoned"]; !ok || v != 0 {
		t.Fatalf("zero-delta counter exported as %d (present %v), want 0 and present", v, ok)
	}
}

func TestRepositoryScopes(t *testing.T) {
	rp := NewRepository()
	alpha := rp.SinkFor("alpha")
	beta := rp.SinkFor("beta")
	a1 := alpha(1)
	a1.Count("pdu.sent", 10)
	b1 := beta(1) // same connID, different host: distinct recorder
	b1.Count("pdu.sent", 5)
	a2 := alpha(2)
	a2.Count("pdu.sent", 1)

	if got := rp.TotalCounter("pdu.sent"); got != 16 {
		t.Fatalf("systemwide %d", got)
	}
	if got := rp.HostCounter("alpha", "pdu.sent"); got != 11 {
		t.Fatalf("alpha %d", got)
	}
	if got := rp.HostCounter("beta", "pdu.sent"); got != 5 {
		t.Fatalf("beta %d", got)
	}
	// Same (host, conn) returns the same recorder.
	if alpha(1) != a1 {
		t.Fatal("recorder identity lost")
	}
	recs := rp.Recorders()
	if len(recs) != 3 || !sort.SliceIsSorted(recs, func(i, j int) bool { return recs[i].Scope < recs[j].Scope }) {
		t.Fatalf("recorders: %d", len(recs))
	}
}

func TestClassification(t *testing.T) {
	cases := map[string]Class{
		"app.delivered_bytes":       Blackbox,
		"workload.latency":          Blackbox,
		"rel.retransmissions":       Whitebox,
		"conn.establish_latency_ns": Whitebox,
		"session.segues":            Whitebox,
	}
	for name, want := range cases {
		if got := ClassOf(name); got != want {
			t.Fatalf("%s classified %v", name, got)
		}
	}
}

func TestRenderContainsMetricsAndClasses(t *testing.T) {
	rp := NewRepository()
	r := rp.SinkFor("h")(1)
	r.Count("rel.retransmissions", 7)
	r.Count("app.delivered_bytes", 1000)
	out := rp.Render()
	for _, want := range []string{"rel.retransmissions", "whitebox", "app.delivered_bytes", "blackbox", "1000"} {
		if !strings.Contains(out, want) {
			t.Fatalf("render missing %q:\n%s", want, out)
		}
	}
}
