package adaptive_test

import (
	"bytes"
	"context"
	"io"
	"net/http"
	"net/http/httptest"
	"strings"
	"testing"
	"time"

	"adaptive"
	"adaptive/internal/netsim"
	"adaptive/internal/sim"
	"adaptive/internal/trace"
	"adaptive/internal/unites"
)

// observedPair builds a sim pair whose dialing node has a full observability
// plane: node-owned flight recorder (also wired into the kernel), archive,
// and HTTP endpoint.
func observedPair(t *testing.T) (*sim.Kernel, *adaptive.Node, *adaptive.Node) {
	t.Helper()
	link := netsim.LinkConfig{Bandwidth: 10e6, PropDelay: time.Millisecond, MTU: 1500}
	k := sim.NewKernel(3)
	k.SetEventLimit(50_000_000)
	net := netsim.New(k)
	ha, hb := net.AddHost(), net.AddHost()
	ab, ba := net.NewLink(link), net.NewLink(link)
	net.SetRoute(ha.ID(), hb.ID(), ab)
	net.SetRoute(hb.ID(), ha.ID(), ba)
	na, err := adaptive.NewNode(
		adaptive.WithProvider(net), adaptive.WithHost(ha.ID()),
		adaptive.WithSeed(1), adaptive.WithName("a"),
		adaptive.WithObservability(adaptive.Observe{
			Listen:       "127.0.0.1:0",
			TraceBuffer:  1 << 12,
			TraceFlush:   256,
			TraceArchive: true,
		}),
	)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { na.Close() })
	k.SetTracer(na.Observability().Recorder())
	nb, err := adaptive.NewNode(adaptive.WithProvider(net), adaptive.WithHost(hb.ID()),
		adaptive.WithSeed(2), adaptive.WithName("b"))
	if err != nil {
		t.Fatal(err)
	}
	return k, na, nb
}

func TestObservabilityEndToEnd(t *testing.T) {
	k, na, nb := observedPair(t)
	obs := na.Observability()
	if !obs.Enabled() {
		t.Fatal("plane not enabled")
	}

	// Attach a live tail before any traffic so it sees record zero.
	tail, err := obs.TraceTail(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	builder := trace.NewSetBuilder()
	tailDone := make(chan error, 1)
	go func() {
		for {
			c, ok := tail.Next()
			if !ok {
				tailDone <- tail.Err()
				return
			}
			if err := builder.Add(c); err != nil {
				tailDone <- err
				return
			}
		}
	}()

	var got []byte
	nb.Listen(80, nil, func(c *adaptive.Conn) {
		c.OnReceive(func(data []byte, eom bool) { got = append(got, data...) })
	})
	conn, err := na.Dial(&adaptive.ACD{
		Participants: []adaptive.Addr{nb.Addr()},
		RemotePort:   80,
		Quant:        adaptive.QuantQoS{AvgThroughputBps: 5e6},
		Qual:         adaptive.QualQoS{Ordered: true},
	}, nil)
	if err != nil {
		t.Fatal(err)
	}
	payload := bytes.Repeat([]byte("observe"), 10000)
	conn.Send(payload)
	k.RunUntil(30 * time.Second)
	if !bytes.Equal(got, payload) {
		t.Fatalf("delivered %d of %d bytes", len(got), len(payload))
	}

	// Metrics surface: snapshot and HTTP endpoint agree.
	snap := obs.MetricsSnapshot()
	if snap.Systemwide["pdu.sent"] == 0 {
		t.Fatalf("snapshot saw no pdu.sent: %v", snap.Systemwide)
	}
	// The plane's own listener and its handler mounted in an application's
	// server are the same surface.
	mounted := httptest.NewServer(obs.Handler())
	defer mounted.Close()
	scrapeAt := func(base string) string {
		resp, err := http.Get(base + "/metrics")
		if err != nil {
			t.Fatal(err)
		}
		defer resp.Body.Close()
		body, _ := io.ReadAll(resp.Body)
		return string(body)
	}
	scrape := func() string { return scrapeAt("http://" + obs.Addr()) }
	line := func(body, metric string) string {
		for _, l := range strings.Split(body, "\n") {
			if strings.HasPrefix(l, metric+" ") {
				return l
			}
		}
		return metric + " <missing>"
	}
	body := scrape()
	if !strings.Contains(body, "adaptive_pdu_sent_total") {
		t.Fatalf("/metrics missing pdu.sent counter:\n%s", body)
	}
	if own, app := line(body, "adaptive_pdu_sent_total"), line(scrapeAt(mounted.URL), "adaptive_pdu_sent_total"); own != app {
		t.Fatalf("mounted handler serves %q, the plane's listener %q", app, own)
	}

	// Session lifecycle on the same surface: the open connection is live;
	// closed, it is retired and its counts stay in the totals.
	if got := line(body, "adaptive_sessions_live_total"); got != "adaptive_sessions_live_total 1" {
		t.Fatalf("open connection: %s", got)
	}
	sentOpen := line(body, "adaptive_pdu_sent_total")
	conn.Abort() // nothing more is sent, so the total must read the same
	body = scrape()
	for _, want := range []string{
		"adaptive_sessions_live_total 0",
		"adaptive_sessions_retired_total 1",
		"adaptive_protograph_late_pdus_total 0",
		sentOpen,
	} {
		if got := line(body, strings.Fields(want)[0]); got != want {
			t.Fatalf("after close /metrics has %q, want %q", got, want)
		}
	}

	// Trace surface: tail reassembly is Diff-identical to the archive and
	// to post-mortem collection from the recorder.
	obs.FlushTrace()
	if err := <-tailDone; err != nil {
		t.Fatal(err)
	}
	if tail.Dropped() != 0 {
		t.Fatalf("tail dropped %d frames", tail.Dropped())
	}
	archive, err := obs.TraceArchive()
	if err != nil {
		t.Fatal(err)
	}
	if div, same := trace.Diff(archive, builder.Set()); !same {
		t.Fatalf("tail diverges from archive: %+v", div)
	}
	collected := trace.Collect(obs.Recorder())
	if archive.Shards[0].Total != collected.Shards[0].Total {
		t.Fatalf("archive total %d != recorder total %d",
			archive.Shards[0].Total, collected.Shards[0].Total)
	}
	if archive.Len() == 0 {
		t.Fatal("empty archive")
	}
}

// TestTraceTailContextCancel: a tail blocked in Next ends, without error,
// when its context is canceled and when it is closed.
func TestTraceTailContextCancel(t *testing.T) {
	for _, how := range []string{"cancel", "close"} {
		t.Run(how, func(t *testing.T) {
			_, na, _ := observedPair(t)
			ctx, cancel := context.WithCancel(context.Background())
			defer cancel()
			tail, err := na.Observability().TraceTail(ctx)
			if err != nil {
				t.Fatal(err)
			}
			ended := make(chan struct{})
			go func() {
				defer close(ended)
				for {
					if _, ok := tail.Next(); !ok {
						return
					}
				}
			}()
			if how == "cancel" {
				cancel()
			} else {
				tail.Close()
			}
			select {
			case <-ended:
			case <-time.After(10 * time.Second):
				t.Fatalf("tail did not end after %s", how)
			}
			if tail.Err() != nil {
				t.Fatalf("unexpected tail error: %v", tail.Err())
			}
		})
	}
}

func TestExternalRecorderAndBareNode(t *testing.T) {
	link := netsim.LinkConfig{Bandwidth: 10e6, PropDelay: time.Millisecond, MTU: 1500}
	k := sim.NewKernel(7)
	net := netsim.New(k)
	h := net.AddHost()
	l := net.NewLink(link)
	net.SetRoute(h.ID(), h.ID(), l)

	repo := unites.NewRepository()
	rec := trace.NewRecorder(1 << 10)
	n, err := adaptive.NewNode(
		adaptive.WithProvider(net), adaptive.WithHost(h.ID()), adaptive.WithName("external"),
		adaptive.WithObservability(adaptive.Observe{Repository: repo, Tracer: rec}),
	)
	if err != nil {
		t.Fatal(err)
	}
	obs := n.Observability()
	if !obs.Enabled() {
		t.Fatal("plane not enabled")
	}
	if obs.Repository() != repo {
		t.Fatal("supplied repository not adopted")
	}
	if obs.Recorder() != rec {
		t.Fatal("supplied tracer not adopted")
	}
	// The node does not install streaming on an externally-owned recorder.
	if _, err := obs.TraceTail(context.Background()); err == nil {
		t.Fatal("TraceTail succeeded on an external recorder")
	}

	// A node with no observability at all still answers, disabled.
	h2 := net.AddHost()
	bare, err := adaptive.NewNode(adaptive.WithProvider(net), adaptive.WithHost(h2.ID()))
	if err != nil {
		t.Fatal(err)
	}
	if bare.Observability() == nil || bare.Observability().Enabled() {
		t.Fatal("bare node observability should be non-nil and disabled")
	}
	if bare.Observability().Addr() != "" {
		t.Fatal("bare node has an endpoint address")
	}
	if err := bare.Close(); err != nil {
		t.Fatal(err)
	}
}

func TestNodeSubscribersFireInParity(t *testing.T) {
	k, na, nb := observedPair(t)
	nb.Listen(80, nil, func(c *adaptive.Conn) { c.OnReceive(func([]byte, bool) {}) })
	var first, second int
	na.Subscribe(func(_ uint32, _ adaptive.Notification) { first++ })
	cancel := na.Subscribe(func(_ uint32, _ adaptive.Notification) { second++ })
	conn, _ := na.Dial(&adaptive.ACD{
		Participants: []adaptive.Addr{nb.Addr()},
		RemotePort:   80,
		Qual:         adaptive.QualQoS{Ordered: true},
	}, nil)
	conn.Send([]byte("x"))
	k.RunUntil(time.Second)
	if first == 0 || second != first {
		t.Fatalf("listeners diverge: first=%d second=%d", first, second)
	}
	cancel()
	before := second
	conn.Close()
	k.RunUntil(10 * time.Second)
	if second != before {
		t.Fatal("canceled subscriber kept firing")
	}
	if first == before {
		t.Fatal("remaining subscriber missed close notifications")
	}
}

func TestNodeProbeContext(t *testing.T) {
	k, na, nb := observedPair(t)
	stop := na.ProbeContext(context.Background(), nb.Addr().Host, 20*time.Millisecond)
	k.RunUntil(500 * time.Millisecond)
	stop()
	ns := na.Entity().NetState().Path(nb.Addr().Host)
	if ns.ProbesSent == 0 {
		t.Fatal("no probes sent")
	}
	k.RunUntil(2 * time.Second)
	if after := na.Entity().NetState().Path(nb.Addr().Host); after.ProbesSent != ns.ProbesSent {
		t.Fatal("probing survived stop()")
	}
}
