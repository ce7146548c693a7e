package experiment

import (
	"encoding/json"
	"io"
	"net/http"
	"sync"
	"testing"
	"time"

	"adaptive/internal/trace"
)

// TestE10ObservedScrapeUnderLoad is the scrape-under-load race gate: the
// sharded soak runs with the full plane attached while scraper goroutines
// hammer every HTTP surface and a trace tail streams /trace — and the
// simulation result must be byte-identical to the unobserved soak. Run it
// with -race: it is the proof that observation never perturbs the data path.
func TestE10ObservedScrapeUnderLoad(t *testing.T) {
	const sessions = 100
	baseline := RunE10Scale(sessions).Fingerprint()

	o, err := StartE10Observed(E10ObservedConfig{
		Buffer: 1 << 12, Sample: 16, Archive: true, Listen: "127.0.0.1:0",
	})
	if err != nil {
		t.Fatal(err)
	}
	defer o.Close()
	addr := o.Addr()

	// Trace tail over HTTP, attached before any traffic.
	tailSet := make(chan *trace.Set, 1)
	tailErr := make(chan error, 1)
	resp, err := http.Get("http://" + addr + "/trace")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	go func() {
		set, err := trace.ReadSet(resp.Body)
		if err != nil {
			tailErr <- err
			return
		}
		tailSet <- set
	}()
	if err := o.Plane.WaitSubscriber(t.Context()); err != nil {
		t.Fatal(err)
	}

	// Scrapers: every metrics surface, as fast as the server answers.
	done := make(chan struct{})
	var wg sync.WaitGroup
	for _, path := range []string{"/metrics", "/metrics.json", "/healthz", "/metrics", "/metrics.json"} {
		wg.Add(1)
		go func(url string) {
			defer wg.Done()
			for {
				select {
				case <-done:
					return
				default:
				}
				resp, err := http.Get(url)
				if err != nil {
					t.Errorf("scrape %s: %v", url, err)
					return
				}
				body, err := io.ReadAll(resp.Body)
				resp.Body.Close()
				if err != nil || resp.StatusCode != 200 {
					t.Errorf("scrape %s: status %d, err %v", url, resp.StatusCode, err)
					return
				}
				if len(body) == 0 {
					t.Errorf("scrape %s: empty body", url)
					return
				}
			}
		}("http://" + addr + path)
	}
	// One direct-snapshot reader exercises the in-process path too.
	wg.Add(1)
	go func() {
		defer wg.Done()
		for {
			select {
			case <-done:
				return
			default:
			}
			snap := o.Plane.MetricsSnapshot()
			if js, err := json.Marshal(snap); err != nil || len(js) == 0 {
				t.Errorf("snapshot marshal: %v", err)
				return
			}
		}
	}()

	observed := o.RunIteration(sessions).Fingerprint()
	close(done)
	wg.Wait()
	o.Finish()

	if observed != baseline {
		t.Fatalf("observation perturbed the soak:\nbaseline %s\nobserved %s", baseline, observed)
	}
	if d := o.Plane.TraceDropped(); d != 0 {
		t.Fatalf("stream dropped %d chunks", d)
	}

	var tailed *trace.Set
	select {
	case tailed = <-tailSet:
	case err := <-tailErr:
		t.Fatal(err)
	case <-time.After(30 * time.Second):
		t.Fatal("trace tail did not finish")
	}
	archive, err := o.Plane.Archive()
	if err != nil {
		t.Fatal(err)
	}
	if div, same := trace.Diff(archive, tailed); !same {
		t.Fatalf("HTTP tail diverges from archive: %+v", div)
	}
	if tailed.Len() == 0 {
		t.Fatal("tailed trace is empty")
	}
	// The streamed trace covers every emitted record (ring wrap included):
	// per-shard stream totals must equal the recorders' emit totals.
	collected := trace.Collect(o.Recorders...)
	for i := range collected.Shards {
		if tailed.Shards[i].Total != collected.Shards[i].Total {
			t.Fatalf("shard %d: streamed %d records, recorder emitted %d",
				i, tailed.Shards[i].Total, collected.Shards[i].Total)
		}
	}
	if snap := o.Plane.MetricsSnapshot(); len(snap.Connections) == 0 {
		t.Fatal("post-soak snapshot has no connections")
	}
}
