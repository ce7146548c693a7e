package unites

import (
	"reflect"
	"sync"
	"testing"
)

// churnedRepo fills a repository with n connections on each of two hosts, each
// with counters, a gauge and two distributions of different shapes.
func churnedRepo(n int) *Repository {
	rp := NewRepository()
	lcg := uint64(7)
	for _, host := range []string{"alpha", "beta"} {
		sink := rp.SinkFor(host)
		for id := uint32(1); id <= uint32(n); id++ {
			r := sink(id)
			r.Count("pdu.sent", uint64(10*id))
			r.Count("rel.retransmissions", uint64(id%3))
			if id%2 == 0 {
				r.Count("session.segues", 1) // a name only some connections have
			}
			r.Gauge("win.size", float64(id))
			for i := 0; i < 50+int(id); i++ {
				lcg = lcg*6364136223846793005 + 1442695040888963407
				r.Sample("conn.establish_latency_ns", float64(lcg>>44)*float64(id))
				r.Sample("app.latency", float64(lcg>>50)/1e6)
			}
		}
	}
	return rp
}

type aggregates struct {
	total, hostA, hostB map[string]uint64
	render              string
	systemwide          map[string]uint64
}

var aggNames = []string{"pdu.sent", "rel.retransmissions", "session.segues", "no.such.counter"}

func aggregatesOf(rp *Repository) aggregates {
	a := aggregates{total: map[string]uint64{}, hostA: map[string]uint64{}, hostB: map[string]uint64{},
		render: rp.Render(), systemwide: rp.Snapshot().Systemwide}
	for _, n := range aggNames {
		a.total[n] = rp.TotalCounter(n)
		a.hostA[n] = rp.HostCounter("alpha", n)
		a.hostB[n] = rp.HostCounter("beta", n)
	}
	return a
}

func recorderOf(rp *Repository, scope string) *Recorder {
	for _, r := range rp.Recorders() {
		if r.Scope == scope {
			return r
		}
	}
	return nil
}

// TestRetireKeepsEveryAggregate: retiring half the connections changes no
// systemwide or per-host figure, drops exactly their recorders, and leaves
// one retired recorder per host whose distributions are the exact merge of
// the ones it absorbed — also through a snapshot round trip.
func TestRetireKeepsEveryAggregate(t *testing.T) {
	const n = 40
	rp := churnedRepo(n)
	before := aggregatesOf(rp)

	wantDist := map[string]*Distribution{}
	for _, name := range []string{"conn.establish_latency_ns", "app.latency"} {
		wantDist[name] = NewDistribution()
	}
	for id := uint32(1); id <= n; id += 2 {
		for name, d := range wantDist {
			d.Merge(rp.SinkFor("alpha")(id).Dist(name))
		}
		rp.Retire("alpha", id)
		rp.Retire("beta", id)
	}

	if after := aggregatesOf(rp); !reflect.DeepEqual(after, before) {
		t.Fatalf("aggregates moved across Retire:\nbefore %+v\nafter  %+v", before, after)
	}
	if got, want := len(rp.Recorders()), 2*(n/2)+2; got != want {
		t.Fatalf("%d recorders after retiring half of %d, want %d (the live ones and one retired per host)", got, 2*n, want)
	}

	retired := recorderOf(rp, "alpha/retired")
	if retired == nil {
		t.Fatal("no alpha/retired recorder")
	}
	if len(retired.gauges) != 0 {
		t.Fatalf("retired recorder kept gauges %v", retired.gauges)
	}
	var restored RecorderSnapshot
	for _, c := range rp.Snapshot().Connections {
		if c.Scope == "alpha/retired" {
			restored = c
		}
	}
	for name, want := range wantDist {
		got := retired.Dist(name)
		back := restored.Dists[name].Restore()
		if got.Count != want.Count || got.Min != want.Min || got.Max != want.Max || back.Count != want.Count {
			t.Fatalf("%s: moments differ from the merge of the originals", name)
		}
		for _, q := range []float64{0, 0.5, 0.9, 0.99, 0.999, 1} {
			if g, w := got.Quantile(q), want.Quantile(q); g != w {
				t.Errorf("%s: retired q%v = %g, merge of the originals = %g", name, q, g, w)
			}
			if b, w := back.Quantile(q), want.Quantile(q); b != w {
				t.Errorf("%s: snapshot-restored q%v = %g, want %g", name, q, b, w)
			}
		}
	}

	// Unknown and already-retired connections: no-ops.
	rp.Retire("alpha", 1)
	rp.Retire("alpha", 9999)
	rp.Retire("gamma", 2)
	if after := aggregatesOf(rp); !reflect.DeepEqual(after, before) {
		t.Fatal("retiring an unknown or already-retired connection changed an aggregate")
	}
	if got, want := len(rp.Recorders()), 2*(n/2)+2; got != want {
		t.Fatalf("%d recorders after no-op retirements, want %d", got, want)
	}
}

// TestRetireUnderConcurrentScrape opens, counts on and retires connections on
// one goroutine while another scrapes every aggregate: under the race
// detector, and no scrape may see a total go backwards or overshoot.
func TestRetireUnderConcurrentScrape(t *testing.T) {
	const conns, perConn = 2000, 5
	rp := NewRepository()
	sink := rp.SinkFor("h")
	stop := make(chan struct{})
	var wg sync.WaitGroup
	wg.Add(1)
	go func() {
		defer wg.Done()
		var last uint64
		for {
			select {
			case <-stop:
				return
			default:
			}
			got := []uint64{rp.TotalCounter("pdu.sent"), rp.HostCounter("h", "pdu.sent"), rp.Snapshot().Systemwide["pdu.sent"]}
			rp.Render()
			for _, v := range got {
				if v < last || v > conns*perConn {
					t.Errorf("scrape read pdu.sent = %d after %d (final %d)", v, last, conns*perConn)
					return
				}
				last = v
			}
		}
	}()
	for id := uint32(1); id <= conns; id++ {
		r := sink(id)
		for i := 0; i < perConn; i++ {
			r.Count("pdu.sent", 1)
			r.Sample("app.latency", float64(i))
		}
		if id > 8 {
			rp.Retire("h", id-8) // a few stay live, as sessions in flight would
		}
	}
	close(stop)
	wg.Wait()
	if got := rp.TotalCounter("pdu.sent"); got != conns*perConn {
		t.Fatalf("pdu.sent = %d after churn, want %d", got, conns*perConn)
	}
	if got := len(rp.Recorders()); got != 8+1 {
		t.Fatalf("%d recorders after churn, want 8 live and 1 retired", got)
	}
}
