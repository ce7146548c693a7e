package experiment

// The three wall-clock rows only this file produces — the E10 soak's N-sweep
// (the N=5000 ns/pkt row ROADMAP item 3b gates on), its GOMAXPROCS sweep, and
// the observability-plane A/B — plus the soak's machine-independent budgets
// as a plain test. Every other per-layer cost is a rung of the repo benchmark
// (bench/, `make bench`).

import (
	"fmt"
	"io"
	"net/http"
	"runtime"
	"runtime/debug"
	"slices"
	"sync"
	"sync/atomic"
	"testing"
	"time"
)

// mallocs reads the process-wide count of heap objects allocated so far.
func mallocs() uint64 {
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	return ms.Mallocs
}

// raceEnabled reports whether this test binary was built with -race.
func raceEnabled() bool {
	if bi, ok := debug.ReadBuildInfo(); ok {
		for _, s := range bi.Settings {
			if s.Key == "-race" {
				return s.Value == "true"
			}
		}
	}
	return false
}

// scrapeEvery is the /trace volume between two /metrics scrapes of the
// observed soak. One N=1000 iteration streams about 3.6 MB of trace, so it
// takes observedScrapes scrapes in every build, however slow.
const (
	scrapeEvery     = 1 << 20
	observedScrapes = 3
)

// startObservedSoak builds the fully observed soak rig: the plane serving
// HTTP, a /trace tail draining frames for the whole run, and /metrics scraped
// once per scrapeEvery bytes the tail reads — a poll cadence set by the soak's
// progress, not the wall clock, so the scrapes per packet do not depend on how
// fast the build runs. scrapes reports how many have completed; stop tears all
// of it down.
func startObservedSoak(tb testing.TB) (o *E10Observed, scrapes func() int, stop func()) {
	tb.Helper()
	o, err := StartE10Observed(E10ObservedConfig{Sample: 64, Listen: "127.0.0.1:0"})
	if err != nil {
		tb.Fatal(err)
	}
	addr := o.Addr()
	tail, err := http.Get("http://" + addr + "/trace")
	if err != nil {
		o.Close()
		tb.Fatal(err)
	}
	done := make(chan struct{})
	// due queues scrapes the tail has triggered. Its room for a few
	// iterations' worth means the tail never waits on a scrape in flight.
	due := make(chan struct{}, 64)
	var taken atomic.Int64
	var wg sync.WaitGroup
	wg.Add(2)
	go func() {
		defer wg.Done()
		defer close(due)
		buf := make([]byte, 64<<10)
		for read, next := 0, scrapeEvery; ; {
			n, err := tail.Body.Read(buf)
			for read += n; read >= next; next += scrapeEvery {
				due <- struct{}{}
			}
			if err != nil {
				return
			}
		}
	}()
	go func() {
		defer wg.Done()
		for range due {
			resp, err := http.Get("http://" + addr + "/metrics")
			if err != nil {
				select {
				case <-done: // endpoint torn down after the run
				default:
					tb.Errorf("scrape: %v", err)
				}
				continue
			}
			_, _ = io.Copy(io.Discard, resp.Body)
			resp.Body.Close()
			taken.Add(1)
		}
	}()
	return o, func() int { return int(taken.Load()) }, func() {
		close(done)
		o.Close()
		tail.Body.Close()
		wg.Wait()
	}
}

// TestE10Budgets pins the soak's two machine-independent bars (§2.2A: per-PDU
// bookkeeping must amortize away): kernel events per delivered packet below
// 1.0 — at the smallest size, where it is tightest, and at the largest — and
// heap allocations per delivered packet below 1.0 at N=5000 and in the fully
// observed soak. N=100 spreads per-session setup over too few packets for an
// allocation bar to mean anything.
func TestE10Budgets(t *testing.T) {
	if raceEnabled() {
		// The detector's runtime allocates per pooled object, and the event
		// counts are virtual-time-deterministic (the golden pins them).
		t.Skip("allocation counts under -race measure the detector, not the datapath")
	}
	check := func(name string, allocBar bool, run func() E10Result) {
		m0 := mallocs()
		r := run()
		allocated := mallocs() - m0
		if r.Delivered == 0 || r.Latency.Count == 0 {
			t.Fatalf("%s: soak delivered %d packets, %d stamped latencies", name, r.Delivered, r.Latency.Count)
		}
		events, allocs := r.EventsPerPacket(), float64(allocated)/float64(r.Delivered)
		t.Logf("%s: %.3f events/pkt, %.3f allocs/pkt", name, events, allocs)
		if events >= 1.0 {
			t.Errorf("%s: events/pkt = %.3f, want < 1.0 (batched delivery not amortizing)", name, events)
		}
		if allocBar && allocs >= 1.0 {
			t.Errorf("%s: allocs/pkt = %.3f, want < 1.0", name, allocs)
		}
	}
	check("N=100", false, func() E10Result { return RunE10Scale(100) })
	check("N=5000", true, func() E10Result { return RunE10Scale(5000) })
	observed, scrapes, stop := startObservedSoak(t)
	defer stop()
	check("observed/N=1000", true, func() E10Result {
		r := observed.RunIteration(1000)
		// The tail trails the soak: count the iteration's last scrapes too.
		for deadline := time.Now().Add(10 * time.Second); scrapes() < observedScrapes && time.Now().Before(deadline); {
			time.Sleep(time.Millisecond)
		}
		return r
	})
	if n := scrapes(); n != observedScrapes {
		t.Errorf("observed/N=1000: %d /metrics scrapes, want %d (one per %d bytes of trace)", n, observedScrapes, scrapeEvery)
	}
}

// benchSoak times b.N runs of one soak (setup outside the call stays off the
// clock and out of the allocation count) and reports wall packet rate, kernel
// events, ns and heap allocations per delivered packet. It returns the last
// run's result.
func benchSoak(b *testing.B, run func() E10Result) (last E10Result) {
	b.ReportAllocs()
	m0 := mallocs()
	b.ResetTimer()
	var delivered, events uint64
	for i := 0; i < b.N; i++ {
		last = run()
		if last.Delivered == 0 {
			b.Fatal("soak delivered nothing")
		}
		delivered += last.Delivered
		events += last.Events
	}
	b.StopTimer()
	allocs := mallocs() - m0
	elapsed := b.Elapsed()
	b.ReportMetric(float64(delivered)/elapsed.Seconds(), "pkts/s")
	b.ReportMetric(float64(events)/float64(delivered), "events/pkt")
	b.ReportMetric(float64(elapsed.Nanoseconds())/float64(delivered), "ns/pkt")
	b.ReportMetric(float64(allocs)/float64(delivered), "allocs/pkt")
	return last
}

// BenchmarkE10_Scale is the many-session soak (see e10.go): N mixed-class
// sessions across 8 sharded kernels with batched link delivery, one row per
// size. The machine-independent bars on its columns are TestE10Budgets.
func BenchmarkE10_Scale(b *testing.B) {
	for _, n := range E10Sessions {
		b.Run(fmt.Sprintf("N=%d", n), func(b *testing.B) {
			benchSoak(b, func() E10Result { return RunE10Scale(n) })
		})
	}
}

// BenchmarkE10_Observed is the observability overhead A/B: the N=1000 soak
// with the plane fully off versus fully on — shared repository, one streaming
// recorder per shard (1/64 sampling), a /trace tail draining frames, and the
// HTTP endpoint scraped once per scrapeEvery bytes of trace. The plane is
// started once per sub-benchmark (the soak model: one long-lived plane, many
// iterations), so the measured delta is the per-packet observation cost, not
// rig setup. The rows are for reading: mode=on against mode=off is within
// run-to-run noise on a shared host, so it gates nothing. The allocation bar
// on the observed soak is TestE10Budgets.
func BenchmarkE10_Observed(b *testing.B) {
	const n = 1000
	b.Run("mode=off", func(b *testing.B) {
		benchSoak(b, func() E10Result { return RunE10Scale(n) })
	})
	// Plane attached (shared repository + streaming recorders + chaser),
	// nobody connected: the standing cost of being observable.
	b.Run("mode=plane", func(b *testing.B) {
		o, err := StartE10Observed(E10ObservedConfig{Sample: 64})
		if err != nil {
			b.Fatal(err)
		}
		defer o.Close()
		benchSoak(b, func() E10Result { return o.RunIteration(n) })
	})
	b.Run("mode=on", func(b *testing.B) {
		o, _, stop := startObservedSoak(b)
		defer stop()
		benchSoak(b, func() E10Result { return o.RunIteration(n) })
	})
}

// parallelProcs returns the GOMAXPROCS sweep {1, 2, 4, NumCPU}, deduplicated
// and capped at the machine's CPU count: on a 1-CPU machine the sweep
// degenerates to {1} (the scaling rows need real cores to mean anything).
// An explicit GOMAXPROCS env below NumCPU caps the sweep too, so CI can pin
// the whole sweep to its allotted cores (GOMAXPROCS=2 -> {1, 2}).
func parallelProcs() []int {
	ncpu := runtime.NumCPU()
	if g := runtime.GOMAXPROCS(0); g < ncpu {
		ncpu = g
	}
	var out []int
	for _, p := range []int{1, 2, 4, ncpu} {
		if p <= ncpu && !slices.Contains(out, p) {
			out = append(out, p)
		}
	}
	return out
}

// BenchmarkE10_ScaleParallel sweeps shard-worker parallelism over the N=5000
// soak: the same 8 sharded kernels, run under GOMAXPROCS in {1,2,4,NumCPU}.
// Each shard keeps a private UNITES repository and meter; results merge in
// fixed shard order with exact histogram merges, so every row must produce
// the identical delivered/event counts and latency distribution — the bench
// fails if worker scheduling leaks into simulation results. The row metric
// of interest is pkts/s against the gomaxprocs column; see EXPERIMENTS.md
// for the expected scaling (this needs a multi-core machine to show >1x).
func BenchmarkE10_ScaleParallel(b *testing.B) {
	var base string
	for _, procs := range parallelProcs() {
		b.Run(fmt.Sprintf("gomaxprocs=%d", procs), func(b *testing.B) {
			prev := runtime.GOMAXPROCS(procs)
			defer runtime.GOMAXPROCS(prev)
			fp := benchSoak(b, func() E10Result { return RunE10Scale(5000) }).Fingerprint()
			b.ReportMetric(float64(procs), "gomaxprocs")
			if base == "" {
				base = fp
			} else if fp != base {
				b.Fatalf("worker count changed simulation results:\n%s\n%s", fp, base)
			}
		})
	}
}

// TestE10ParallelSpeedup pins the multi-core scaling criterion: the N=5000
// soak at GOMAXPROCS=4 must deliver at least 3x the packet rate of the same
// soak at GOMAXPROCS=1. Wall-clock speedup needs real cores, so the test
// skips on machines with fewer than 4 CPUs (documented in EXPERIMENTS.md);
// the determinism half of the contract (same results at any worker count) is
// asserted unconditionally by BenchmarkE10_ScaleParallel and TestRunSharded.
func TestE10ParallelSpeedup(t *testing.T) {
	if testing.Short() {
		t.Skip("speedup soak skipped in -short")
	}
	if runtime.NumCPU() < 4 {
		t.Skipf("need >= 4 CPUs for the 4-worker scaling gate, have %d", runtime.NumCPU())
	}
	rate := func(procs int) float64 {
		prev := runtime.GOMAXPROCS(procs)
		defer runtime.GOMAXPROCS(prev)
		t0 := time.Now()
		r := RunE10Scale(5000)
		return float64(r.Delivered) / time.Since(t0).Seconds()
	}
	rate(runtime.NumCPU()) // warm the pools so both timed runs start equal
	r1 := rate(1)
	r4 := rate(4)
	t.Logf("pkts/s at GOMAXPROCS=1: %.0f, at 4: %.0f (%.2fx)", r1, r4, r4/r1)
	if r4 < 3*r1 {
		t.Errorf("GOMAXPROCS=4 speedup %.2fx, want >= 3x", r4/r1)
	}
}
