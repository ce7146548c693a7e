package obsv

import (
	"encoding/json"
	"errors"
	"io"
	"net/http"
	"strings"
	"testing"
	"time"

	"adaptive/internal/trace"
	"adaptive/internal/unites"
)

func emitN(r *trace.Recorder, n int) {
	for i := 0; i < n; i++ {
		r.Emit(time.Duration(i)*time.Microsecond, trace.KPDUSend, uint32(i), uint64(i), 0, 0)
	}
}

func TestPlaneArchivesAndFansOut(t *testing.T) {
	recs := []*trace.Recorder{trace.NewRecorder(256), trace.NewRecorder(256)}
	recs[1].SetShard(1)
	p, err := New(Options{Recorders: recs, FlushEvery: 32, Archive: true})
	if err != nil {
		t.Fatal(err)
	}
	sub, err := p.Subscribe()
	if err != nil {
		t.Fatal(err)
	}

	// Reassemble the subscriber's frames on the side.
	b := trace.NewSetBuilder()
	done := make(chan error, 1)
	go func() {
		for frame := range sub.Frames() {
			c, rest, err := trace.DecodeFrame(frame)
			if err != nil {
				done <- err
				return
			}
			if len(rest) != 0 {
				done <- errTrailing
				return
			}
			if err := b.Add(c); err != nil {
				done <- err
				return
			}
		}
		done <- nil
	}()

	emitN(recs[0], 1000) // wraps the 256-ring: archive must still be complete
	emitN(recs[1], 333)
	p.FinishTrace()
	if err := <-done; err != nil {
		t.Fatal(err)
	}

	archive, err := p.Archive()
	if err != nil {
		t.Fatal(err)
	}
	collected := trace.Collect(recs...) // post-mortem view: retained tail only
	if archive.Shards[0].Total != collected.Shards[0].Total {
		t.Fatalf("archive total %d != recorder total %d",
			archive.Shards[0].Total, collected.Shards[0].Total)
	}
	if len(archive.Shards[0].Records) != 1000 {
		t.Fatalf("archive shard 0 has %d records, want all 1000 despite ring wrap",
			len(archive.Shards[0].Records))
	}
	// The subscriber's reassembly must match the archive byte for byte.
	if div, same := trace.Diff(archive, b.Set()); !same {
		t.Fatalf("subscriber reassembly diverges from archive: %+v", div)
	}
	if sub.Dropped() != 0 {
		t.Fatalf("subscriber dropped %d frames", sub.Dropped())
	}
}

var errTrailing = errors.New("frame carried trailing bytes")

func TestSlowSubscriberDropsNotBlocks(t *testing.T) {
	rec := trace.NewRecorder(1 << 10)
	p, err := New(Options{Recorders: []*trace.Recorder{rec}, FlushEvery: 8, SubBuffer: 1})
	if err != nil {
		t.Fatal(err)
	}
	sub, err := p.Subscribe()
	if err != nil {
		t.Fatal(err)
	}
	emitN(rec, 512) // 64 chunks into a 1-frame buffer nobody reads
	p.FinishTrace()
	if sub.Dropped() == 0 {
		t.Fatal("expected frame drops on a stalled subscriber")
	}
	// The channel still closed cleanly.
	n := 0
	for range sub.Frames() {
		n++
	}
	if n > 1 {
		t.Fatalf("buffered frames = %d, want <= 1", n)
	}
}

func startedPlane(t *testing.T) (*Plane, []*trace.Recorder, string) {
	t.Helper()
	repo := unites.NewRepository()
	sink := repo.SinkFor("hostA")
	r := sink(7)
	r.Count("pdu.send", 42)
	r.Sample("app.latency", 0.010)
	r.Sample("app.latency", 0.020)
	recs := []*trace.Recorder{trace.NewRecorder(256)}
	p, err := New(Options{
		Repository: repo,
		Recorders:  recs,
		FlushEvery: 16,
		Archive:    true,
		Counters:   map[string]func() uint64{"udpnet.dropped_posts": func() uint64 { return 3 }},
	})
	if err != nil {
		t.Fatal(err)
	}
	addr, err := p.Serve("127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { p.Close() })
	return p, recs, addr
}

func TestHTTPMetricsSurfaces(t *testing.T) {
	_, _, addr := startedPlane(t)

	resp, err := http.Get("http://" + addr + "/healthz")
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != 200 {
		t.Fatalf("/healthz = %d", resp.StatusCode)
	}

	resp, err = http.Get("http://" + addr + "/metrics")
	if err != nil {
		t.Fatal(err)
	}
	body, _ := io.ReadAll(resp.Body)
	resp.Body.Close()
	text := string(body)
	for _, want := range []string{
		"# TYPE adaptive_pdu_send_total counter",
		"adaptive_pdu_send_total 42",
		`adaptive_pdu_send_total{host="hostA"} 42`,
		"# TYPE adaptive_app_latency summary",
		`adaptive_app_latency{quantile="0.5"}`,
		"adaptive_app_latency_count 2",
		"adaptive_udpnet_dropped_posts_total 3",
		"adaptive_obsv_scrapes_total",
	} {
		if !strings.Contains(text, want) {
			t.Errorf("/metrics missing %q\n---\n%s", want, text)
		}
	}

	resp, err = http.Get("http://" + addr + "/metrics.json")
	if err != nil {
		t.Fatal(err)
	}
	var doc metricsJSON
	err = json.NewDecoder(resp.Body).Decode(&doc)
	resp.Body.Close()
	if err != nil {
		t.Fatal(err)
	}
	if len(doc.Metrics.Connections) != 1 || doc.Metrics.Systemwide["pdu.send"] != 42 {
		t.Fatalf("unexpected /metrics.json payload: %+v", doc.Metrics)
	}
	if doc.Plane["udpnet.dropped_posts"] != 3 {
		t.Fatalf("extra counter missing from plane block: %+v", doc.Plane)
	}
	// The exported distribution restores exactly.
	ds, ok := doc.Metrics.Connections[0].Dists["app.latency"]
	if !ok {
		t.Fatal("app.latency distribution missing")
	}
	if got := ds.Restore().Hist().Quantile(0.5); got != ds.P50 {
		t.Fatalf("restored p50 %g != exported %g", got, ds.P50)
	}
}

func TestHTTPTraceTailMatchesArchive(t *testing.T) {
	p, recs, addr := startedPlane(t)

	resp, err := http.Get("http://" + addr + "/trace")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	tail := make(chan *trace.Set, 1)
	errc := make(chan error, 1)
	go func() {
		set, err := trace.ReadSet(resp.Body)
		if err != nil {
			errc <- err
			return
		}
		tail <- set
	}()

	// Let the HTTP subscriber attach before emitting so it sees record 0.
	if err := p.WaitSubscriber(t.Context()); err != nil {
		t.Fatal(err)
	}
	emitN(recs[0], 700)
	p.FinishTrace()

	var tailSet *trace.Set
	select {
	case tailSet = <-tail:
	case err := <-errc:
		t.Fatal(err)
	case <-time.After(10 * time.Second):
		t.Fatal("tail did not finish")
	}
	archive, err := p.Archive()
	if err != nil {
		t.Fatal(err)
	}
	if div, same := trace.Diff(archive, tailSet); !same {
		t.Fatalf("HTTP tail diverges from archive: %+v", div)
	}
	if tailSet.Len() != 700 {
		t.Fatalf("tail has %d records, want 700", tailSet.Len())
	}
}

func TestSubscribeAfterEndFails(t *testing.T) {
	rec := trace.NewRecorder(64)
	p, err := New(Options{Recorders: []*trace.Recorder{rec}})
	if err != nil {
		t.Fatal(err)
	}
	p.FinishTrace()
	if _, err := p.Subscribe(); err == nil {
		t.Fatal("Subscribe succeeded after FinishTrace")
	}
	// A plane with no recorders has no stream at all.
	p2, _ := New(Options{})
	if _, err := p2.Subscribe(); err == nil {
		t.Fatal("Subscribe succeeded with no trace stream")
	}
}

func TestPromNameSanitization(t *testing.T) {
	for in, want := range map[string]string{
		"pdu.send":       "adaptive_pdu_send",
		"rel/retransmit": "adaptive_rel_retransmit",
		"a-b.c":          "adaptive_a_b_c",
	} {
		if got := promName(in); got != want {
			t.Errorf("promName(%q) = %q, want %q", in, got, want)
		}
	}
}

func TestArchiveErrors(t *testing.T) {
	p, _ := New(Options{})
	if _, err := p.Archive(); err == nil {
		t.Fatal("Archive succeeded with archiving off")
	}
	rec := trace.NewRecorder(64)
	p2, err := New(Options{Recorders: []*trace.Recorder{rec}, Archive: true})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := p2.Archive(); err == nil {
		t.Fatal("Archive succeeded while stream still live")
	}
	p2.FinishTrace()
	if _, err := p2.Archive(); err != nil {
		t.Fatal(err)
	}
}
