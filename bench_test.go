// Benchmarks: one per reproduced table/figure (see DESIGN.md §4), plus
// micro-benchmarks of the data-path substrates. The experiment benches wrap
// the same runners cmd/adaptivebench uses, so `go test -bench=.` regenerates
// every artifact's workload under the Go benchmark harness; absolute wall
// time per op is dominated by simulated-event processing, which is exactly
// the cost a user of this library pays to run such an experiment.
package adaptive_test

import (
	"fmt"
	"io"
	"net/http"
	"runtime"
	"sync"
	"testing"
	"time"

	"adaptive"
	"adaptive/internal/arbiter"
	"adaptive/internal/experiment"
	"adaptive/internal/mantts"
	"adaptive/internal/mechanism"
	"adaptive/internal/message"
	"adaptive/internal/netsim"
	"adaptive/internal/sim"
	"adaptive/internal/tko"
	"adaptive/internal/wire"
	"adaptive/internal/workload"
)

// --- experiment-backed benches (tables and figures) ---

func BenchmarkT1_TSCRows(b *testing.B) {
	// Stage I+II for all nine Table 1 rows per iteration.
	path := mantts.PathState{RTT: 10 * time.Millisecond, MTU: 1500, Bandwidth: 100e6}
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		for j := range mantts.Table1 {
			acd := mantts.ACDForProfile(&mantts.Table1[j])
			acd.Participants = []adaptive.Addr{{Host: 2}}
			tsc := mantts.Classify(acd)
			_ = mantts.DeriveSCS(tsc, acd, path)
		}
	}
}

func BenchmarkT2_ACDCodec(b *testing.B) {
	acd := mantts.ACDForProfile(mantts.Profile("Tele-Conferencing"))
	acd.Participants = []adaptive.Addr{{Host: 2, Port: 80}, {Host: 3, Port: 80}}
	acd.TSA = []adaptive.Rule{{
		Cond:   adaptive.Cond{Metric: adaptive.MetricRTT, Op: adaptive.OpGT, Threshold: 0.3},
		Action: adaptive.Action{Kind: adaptive.ActSetRecovery, Recovery: adaptive.RecoveryFEC},
	}}
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		enc := mantts.EncodeACD(acd)
		if _, err := mantts.DecodeACD(enc); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkF2_Transformation(b *testing.B) {
	acd := mantts.ACDForProfile(mantts.Profile("File Transfer"))
	acd.Participants = []adaptive.Addr{{Host: 2}}
	path := mantts.PathState{RTT: 10 * time.Millisecond, MTU: 1500}
	tsc := mantts.Classify(acd)
	spec := mantts.DeriveSCS(tsc, acd, path)

	b.Run("dynamic-synthesis", func(b *testing.B) {
		reg := tko.DefaultRegistry()
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			sy := tko.NewSynthesizer(reg)
			sp := *spec
			if _, err := sy.Synthesize(&sp); err != nil {
				b.Fatal(err)
			}
		}
	})
	b.Run("template-hit", func(b *testing.B) {
		sy := tko.NewSynthesizer(tko.DefaultRegistry())
		sy.InstallTemplate("bench", tko.TemplateReconfigurable, *spec)
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			sp := *spec
			if _, err := sy.Synthesize(&sp); err != nil {
				b.Fatal(err)
			}
		}
	})
}

// benchScenario runs a short two-host transfer and reports simulated-time
// metrics alongside wall time.
func benchScenario(b *testing.B, spec adaptive.Spec, link netsim.LinkConfig, size int) {
	b.Helper()
	b.ReportAllocs()
	var simTime time.Duration
	for i := 0; i < b.N; i++ {
		k := sim.NewKernel(int64(i + 1))
		net := netsim.New(k)
		ha, hb := net.AddHost(), net.AddHost()
		net.SetRoute(ha.ID(), hb.ID(), net.NewLink(link))
		net.SetRoute(hb.ID(), ha.ID(), net.NewLink(link))
		na, _ := adaptive.NewNode(adaptive.WithProvider(net), adaptive.WithHost(ha.ID()), adaptive.WithSeed(1))
		nb, _ := adaptive.NewNode(adaptive.WithProvider(net), adaptive.WithHost(hb.ID()), adaptive.WithSeed(2))
		got := 0
		var doneAt time.Duration
		nb.Listen(80, nil, func(c *adaptive.Conn) {
			c.OnReceive(func(data []byte, eom bool) {
				got += len(data)
				if got >= size && doneAt == 0 {
					doneAt = k.Now()
				}
			})
		})
		conn, err := na.DialSpec(spec, nb.Addr(), 1000, 80)
		if err != nil {
			b.Fatal(err)
		}
		g := &workload.Bulk{Out: conn, TotalSize: size, ChunkSize: 16 << 10}
		g.Start(k)
		k.RunUntil(5 * time.Minute)
		if got < size {
			b.Fatalf("transfer incomplete: %d of %d", got, size)
		}
		simTime += doneAt
	}
	b.ReportMetric(float64(simTime.Milliseconds())/float64(b.N), "simms/op")
}

func BenchmarkF3_ConnMgmt(b *testing.B) {
	link := netsim.LinkConfig{Bandwidth: 10e6, PropDelay: 10 * time.Millisecond, MTU: 1500}
	for _, cm := range []struct {
		name string
		kind adaptive.ConnKind
	}{{"implicit", adaptive.ConnImplicit}, {"explicit-2way", adaptive.ConnExplicit2Way}, {"explicit-3way", adaptive.ConnExplicit3Way}} {
		b.Run(cm.name, func(b *testing.B) {
			spec := adaptive.Spec{
				ConnMgmt: cm.kind, Recovery: adaptive.RecoverySelectiveRepeat,
				Window: adaptive.WindowFixed, WindowSize: 32, Order: adaptive.OrderSequenced,
			}
			benchScenario(b, spec, link, 10<<10)
		})
	}
}

func BenchmarkE1_Retransmission(b *testing.B) {
	link := netsim.LinkConfig{Bandwidth: 10e6, PropDelay: 10 * time.Millisecond, MTU: 1500, DropRate: 0.01}
	for _, rec := range []struct {
		name string
		kind adaptive.RecoveryKind
	}{{"go-back-n", adaptive.RecoveryGoBackN}, {"selective-repeat", adaptive.RecoverySelectiveRepeat}, {"fec-hybrid", adaptive.RecoveryFECHybrid}} {
		b.Run(rec.name, func(b *testing.B) {
			spec := adaptive.Spec{
				ConnMgmt: adaptive.ConnExplicit2Way, Recovery: rec.kind,
				Window: adaptive.WindowFixed, WindowSize: 32, Order: adaptive.OrderSequenced,
				Checksum: wire.CkCRC32,
			}
			benchScenario(b, spec, link, 256<<10)
		})
	}
}

func BenchmarkE2_Weight(b *testing.B) {
	b.Run("overweight-voice", func(b *testing.B) { benchRunTables(b, experiment.RunE2) })
}

func BenchmarkE3_CongestionPolicy(b *testing.B) { benchRunTables(b, experiment.RunE3) }
func BenchmarkE4_RouteSwitch(b *testing.B)      { benchRunTables(b, experiment.RunE4) }
func BenchmarkE7_Preservation(b *testing.B)     { benchRunTables(b, experiment.RunE7) }
func BenchmarkE8_JoinLeave(b *testing.B)        { benchRunTables(b, experiment.RunE8) }

// BenchmarkE13_ArbiterGrant is the grant hot path: one congestion Observe
// plus a full Reallocate (virtual time advanced by ReallocEvery each
// iteration, so every iteration recomputes and fires grants across all
// registered sessions — harsher than the per-packet steady state, where
// reallocation is rate-limited). The bench_compare baseline pins this at
// zero allocs/op: every MANTTS sampler tick pays this cost, so an
// allocation here is an allocation per sample across every session on the
// host.
func BenchmarkE13_ArbiterGrant(b *testing.B) {
	pol := arbiter.DefaultPolicy()
	a := arbiter.New(pol)
	a.SeedCapacity(100e6)
	var sink float64
	for id := uint32(1); id <= 8; id++ {
		a.Register(id, arbiter.Class(id%arbiter.NumClasses), 1, 10e6,
			func(bps float64) { sink = bps })
	}
	now := time.Duration(0)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		// Alternate clean and congested samples so both estimator branches
		// (probe and multiplicative decrease) stay on the measured path.
		sig := arbiter.Signal{
			LossRate: float64(i%8) * 0.005,
			RTT:      time.Duration(5+i%3) * time.Millisecond,
		}
		a.Observe(now, uint32(i%8)+1, sig)
		now += pol.ReallocEvery
		a.Reallocate(now)
	}
	_ = sink
}

// benchRunTables executes a full experiment runner per iteration.
func benchRunTables(b *testing.B, run func() []experiment.Table) {
	b.Helper()
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		tables := run()
		if len(tables) == 0 || len(tables[0].Rows) == 0 {
			b.Fatal("experiment produced nothing")
		}
	}
}

func BenchmarkE5_Customization(b *testing.B) {
	// Per-PDU receive-path cost: the core §4.2.2 trade-off, as testing.B
	// numbers.
	payload := make([]byte, 512)
	mkPkt := func(seq uint32) []byte {
		p := &wire.PDU{Header: wire.Header{Type: wire.TData, Seq: seq}, Payload: message.NewFromBytes(payload)}
		out := encodedCopy(b, p, wire.CkCRC32)
		p.ReleasePayload()
		return out
	}
	b.Run("customized", func(b *testing.B) {
		c := tko.NewCustomizedReceiver(func([]byte, bool) {})
		pkts := make([][]byte, b.N)
		for i := range pkts {
			pkts[i] = mkPkt(uint32(i))
		}
		b.ReportAllocs()
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			c.Process(pkts[i])
		}
	})
	b.Run("decode-only", func(b *testing.B) {
		pkts := make([][]byte, b.N)
		for i := range pkts {
			pkts[i] = mkPkt(uint32(i))
		}
		var p wire.PDU
		b.ReportAllocs()
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			if err := wire.DecodeInto(pkts[i], &p); err != nil {
				b.Fatal(err)
			}
			p.ReleasePayload()
		}
	})
}

func BenchmarkE6_TemplateCache(b *testing.B) {
	spec := mechanism.DefaultSpec()
	b.Run("cold", func(b *testing.B) {
		reg := tko.DefaultRegistry()
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			sy := tko.NewSynthesizer(reg)
			sp := spec
			sy.Synthesize(&sp)
		}
	})
	b.Run("warm", func(b *testing.B) {
		sy := tko.NewSynthesizer(tko.DefaultRegistry())
		sy.InstallTemplate("w", tko.TemplateReconfigurable, spec)
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			sp := spec
			sy.Synthesize(&sp)
		}
	})
}

// --- substrate micro-benchmarks ---

// encodedCopy returns a private copy of the packet EncodeTo emits for p.
func encodedCopy(tb testing.TB, p *wire.PDU, ck wire.ChecksumKind) []byte {
	tb.Helper()
	var out []byte
	if err := wire.EncodeTo(p, ck, func(pkt []byte) error {
		out = append([]byte(nil), pkt...)
		return nil
	}); err != nil {
		tb.Fatal(err)
	}
	return out
}

func BenchmarkWireEncodeTo(b *testing.B) {
	// In-place fast path: pooled payload with headroom, scoped emit callback.
	payload := message.AllocPooled(1400, message.DefaultHeadroom)
	p := &wire.PDU{Header: wire.Header{Type: wire.TData, Seq: 1}, Payload: payload}
	b.SetBytes(1400)
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		if err := wire.EncodeTo(p, wire.CkCRC32, func([]byte) error { return nil }); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkWireDecodeInto(b *testing.B) {
	payload := message.NewFromBytes(make([]byte, 1400))
	src := &wire.PDU{Header: wire.Header{Type: wire.TData, Seq: 1}, Payload: payload}
	pkt := encodedCopy(b, src, wire.CkCRC32)
	var p wire.PDU
	b.SetBytes(1400)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if err := wire.DecodeInto(pkt, &p); err != nil {
			b.Fatal(err)
		}
		p.ReleasePayload()
	}
}

func BenchmarkChecksums(b *testing.B) {
	body := make([]byte, 1400)
	for _, ck := range []wire.ChecksumKind{wire.CkInternet, wire.CkCRC32} {
		b.Run(ck.String(), func(b *testing.B) {
			p := &wire.PDU{Header: wire.Header{Type: wire.TData}, Payload: message.NewFromBytes(body)}
			b.SetBytes(1400)
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				if err := wire.EncodeTo(p, ck, func([]byte) error { return nil }); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

func BenchmarkMessagePushPop(b *testing.B) {
	m := message.Alloc(1400, 64)
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		m.Push(wire.HeaderLen)
		m.Pop(wire.HeaderLen)
	}
}

func BenchmarkMessageSplitClone(b *testing.B) {
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		m := message.Alloc(1400, 64)
		rest := m.Split(700)
		c := rest.Clone()
		c.Release()
		rest.Release()
		m.Release()
	}
}

func BenchmarkNetsimPacketForwarding(b *testing.B) {
	k := sim.NewKernel(1)
	net := netsim.New(k)
	ha, hb := net.AddHost(), net.AddHost()
	link := net.NewLink(netsim.LinkConfig{Bandwidth: 1e9, PropDelay: time.Microsecond, MTU: 1500})
	net.SetRoute(ha.ID(), hb.ID(), link)
	epA, _ := net.Open(ha.ID(), 1)
	epB, _ := net.Open(hb.ID(), 2)
	count := 0
	epB.SetReceiver(func(pkt []byte, _ adaptive.Addr) { count++ })
	pkt := make([]byte, 1000)
	b.SetBytes(1000)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		epA.Send(pkt, epB.LocalAddr())
		k.Run()
	}
	if count != b.N {
		b.Fatalf("delivered %d of %d", count, b.N)
	}
}

func BenchmarkSimKernelEvents(b *testing.B) {
	k := sim.NewKernel(1)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		k.Schedule(time.Microsecond, func() {})
		k.Run()
	}
}

func BenchmarkKernelChurn(b *testing.B) {
	// Mixed schedule/cancel load: the timer-wheel path a transport exercises
	// when every data PDU arms an RTO that is usually stopped by an ack.
	k := sim.NewKernel(1)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		t := k.Schedule(time.Millisecond, func() {})
		k.Schedule(time.Microsecond, func() {})
		k.RunFor(2 * time.Microsecond)
		t.Stop()
		k.Run()
	}
}

func BenchmarkEndToEndThroughput(b *testing.B) {
	// Simulated bulk transfer through the full stack: how many simulated
	// PDUs per wall second the library processes.
	link := netsim.LinkConfig{Bandwidth: 622e6, PropDelay: time.Millisecond, MTU: 9180}
	spec := adaptive.Spec{
		ConnMgmt: adaptive.ConnExplicit2Way, Recovery: adaptive.RecoverySelectiveRepeat,
		Window: adaptive.WindowFixed, WindowSize: 64, Order: adaptive.OrderSequenced,
		MSS: 9000, RcvBufPDUs: 256,
	}
	benchScenario(b, spec, link, 4<<20)
}

// BenchmarkE10_Scale is the many-session soak (see internal/experiment/e10.go):
// N mixed-class sessions across 8 sharded kernels with batched link delivery.
// Per size it reports wall packet rate, kernel events per delivered packet
// (the scale metric — must stay below 1.0), ns and heap allocations per
// delivered packet. `make bench-scale` records the sweep in BENCH_scale.json.
func BenchmarkE10_Scale(b *testing.B) {
	for _, n := range experiment.E10Sessions {
		b.Run(fmt.Sprintf("N=%d", n), func(b *testing.B) {
			b.ReportAllocs()
			var ms0, ms1 runtime.MemStats
			runtime.ReadMemStats(&ms0)
			var delivered, events uint64
			for i := 0; i < b.N; i++ {
				r := experiment.RunE10Scale(n)
				if r.Delivered == 0 {
					b.Fatal("soak delivered nothing")
				}
				delivered += r.Delivered
				events += r.Events
			}
			runtime.ReadMemStats(&ms1)
			elapsed := b.Elapsed()
			b.ReportMetric(float64(delivered)/elapsed.Seconds(), "pkts/s")
			b.ReportMetric(float64(events)/float64(delivered), "events/pkt")
			b.ReportMetric(float64(elapsed.Nanoseconds())/float64(delivered), "ns/pkt")
			b.ReportMetric(float64(ms1.Mallocs-ms0.Mallocs)/float64(delivered), "allocs/pkt")
		})
	}
}

// BenchmarkE10_Observed is the observability overhead A/B gate: the N=1000
// soak with the plane fully off versus fully on — shared repository, one
// streaming recorder per shard (1/64 sampling), the HTTP endpoint scraped
// every 200ms, and a /trace tail draining frames. The plane is started once
// per sub-benchmark (the soak model: one long-lived plane, many iterations),
// so the measured delta is the per-packet observation cost, not rig setup.
// The acceptance bar (enforced by scripts/bench_scale.sh): mode=on holds
// pkts/s within OBS_THRESHOLD (default 5%) of mode=off and keeps allocs/pkt
// below 1.0.
func BenchmarkE10_Observed(b *testing.B) {
	const n = 1000
	// soak measures b.N iterations of run, with setup/teardown excluded from
	// both the clock and the allocation counts.
	soak := func(b *testing.B, run func() uint64) {
		b.ReportAllocs()
		var ms0, ms1 runtime.MemStats
		runtime.ReadMemStats(&ms0)
		b.ResetTimer()
		var delivered uint64
		for i := 0; i < b.N; i++ {
			d := run()
			if d == 0 {
				b.Fatal("soak delivered nothing")
			}
			delivered += d
		}
		b.StopTimer()
		runtime.ReadMemStats(&ms1)
		elapsed := b.Elapsed()
		b.ReportMetric(float64(delivered)/elapsed.Seconds(), "pkts/s")
		b.ReportMetric(float64(elapsed.Nanoseconds())/float64(delivered), "ns/pkt")
		b.ReportMetric(float64(ms1.Mallocs-ms0.Mallocs)/float64(delivered), "allocs/pkt")
	}
	b.Run("mode=off", func(b *testing.B) {
		soak(b, func() uint64 { return experiment.RunE10Scale(n).Delivered })
	})
	// Plane attached (shared repository + streaming recorders + chaser),
	// nobody connected: the standing cost of being observable.
	b.Run("mode=plane", func(b *testing.B) {
		o, err := experiment.StartE10Observed(experiment.E10ObservedConfig{Sample: 64})
		if err != nil {
			b.Fatal(err)
		}
		defer o.Close()
		soak(b, func() uint64 { return o.RunIteration(n).Delivered })
	})
	b.Run("mode=on", func(b *testing.B) {
		o, err := experiment.StartE10Observed(experiment.E10ObservedConfig{
			Sample: 64, Listen: "127.0.0.1:0",
		})
		if err != nil {
			b.Fatal(err)
		}
		addr := o.Addr()
		done := make(chan struct{})
		var wg sync.WaitGroup
		// Scraper: a realistic Prometheus-style poll cadence.
		wg.Add(1)
		go func() {
			defer wg.Done()
			tick := time.NewTicker(200 * time.Millisecond)
			defer tick.Stop()
			for {
				select {
				case <-done:
					return
				case <-tick.C:
				}
				resp, err := http.Get("http://" + addr + "/metrics")
				if err != nil {
					select {
					case <-done: // endpoint torn down after the run
						return
					default:
					}
					b.Errorf("scrape: %v", err)
					return
				}
				_, _ = io.Copy(io.Discard, resp.Body)
				resp.Body.Close()
			}
		}()
		// Tail: drain the live trace stream for the whole run.
		resp, err := http.Get("http://" + addr + "/trace")
		if err != nil {
			b.Fatal(err)
		}
		wg.Add(1)
		go func() {
			defer wg.Done()
			_, _ = io.Copy(io.Discard, resp.Body)
		}()
		soak(b, func() uint64 { return o.RunIteration(n).Delivered })
		close(done)
		o.Close()
		resp.Body.Close()
		wg.Wait()
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
		if p > ncpu {
			continue
		}
		dup := false
		for _, q := range out {
			if q == p {
				dup = true
			}
		}
		if !dup {
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
	const n = 5000
	type fingerprint struct {
		delivered, events, samples uint64
		p50, p99                   float64
	}
	var base *fingerprint
	for _, procs := range parallelProcs() {
		b.Run(fmt.Sprintf("gomaxprocs=%d", procs), func(b *testing.B) {
			prev := runtime.GOMAXPROCS(procs)
			defer runtime.GOMAXPROCS(prev)
			b.ReportAllocs()
			var delivered, events uint64
			var fp fingerprint
			var ms0, ms1 runtime.MemStats
			runtime.ReadMemStats(&ms0)
			for i := 0; i < b.N; i++ {
				r := experiment.RunE10Scale(n)
				if r.Delivered == 0 {
					b.Fatal("soak delivered nothing")
				}
				delivered += r.Delivered
				events += r.Events
				fp = fingerprint{r.Delivered, r.Events, r.Latency.Count,
					r.Latency.HistQuantile(0.50), r.Latency.HistQuantile(0.99)}
			}
			if base == nil {
				base = &fp
			} else if fp != *base {
				b.Fatalf("worker count changed simulation results: %+v != %+v", fp, *base)
			}
			runtime.ReadMemStats(&ms1)
			elapsed := b.Elapsed()
			b.ReportMetric(float64(procs), "gomaxprocs")
			b.ReportMetric(float64(delivered)/elapsed.Seconds(), "pkts/s")
			b.ReportMetric(float64(events)/float64(delivered), "events/pkt")
			b.ReportMetric(float64(elapsed.Nanoseconds())/float64(delivered), "ns/pkt")
			b.ReportMetric(float64(ms1.Mallocs-ms0.Mallocs)/float64(delivered), "allocs/pkt")
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
		r := experiment.RunE10Scale(5000)
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

func BenchmarkA1_DelayedAcks(b *testing.B)   { benchRunTables(b, experiment.RunA1) }
func BenchmarkA2_FECGroupSweep(b *testing.B) { benchRunTables(b, experiment.RunA2) }
func BenchmarkA3_NakThrottle(b *testing.B)   { benchRunTables(b, experiment.RunA3) }

// BenchmarkE11_Live is the live line-rate blast (internal/experiment/e11.go):
// a mixed Table-1-size datagram stream over UDP loopback through the udpnet
// provider, in the two standard configurations — mode=perpkt (BatchSize=1,
// FlushWindow=0: one syscall and one loop post per datagram, the
// pre-batching shape) and mode=batched (recvmmsg/sendmmsg with a flush
// window). Each reports wall packet rate, ns and heap allocations per
// delivered datagram. The acceptance bar (scripts/bench_live.sh):
// mode=batched at >= 2x the mode=perpkt packet rate with allocs/pkt below
// 1.0. `make bench-live` records both in BENCH_live.json.
func BenchmarkE11_Live(b *testing.B) {
	const burst = 8192
	for _, m := range []struct {
		name string
		cfg  experiment.E11Config
	}{
		{"perpkt", experiment.E11PerPacket},
		{"batched", experiment.E11Batched},
	} {
		b.Run("mode="+m.name, func(b *testing.B) {
			rig, err := experiment.StartE11(m.cfg)
			if err != nil {
				b.Fatal(err)
			}
			defer rig.Close()
			// Warm the slab pools, the rx ring, and the flush timer so the
			// measurement sees the steady state.
			if _, _, err := rig.Blast(4096); err != nil {
				b.Fatal(err)
			}
			b.ReportAllocs()
			var ms0, ms1 runtime.MemStats
			runtime.ReadMemStats(&ms0)
			b.ResetTimer()
			var delivered uint64
			for i := 0; i < b.N; i++ {
				n, _, err := rig.Blast(burst)
				if err != nil {
					b.Fatal(err)
				}
				delivered += uint64(n)
			}
			b.StopTimer()
			runtime.ReadMemStats(&ms1)
			elapsed := b.Elapsed()
			b.ReportMetric(float64(delivered)/elapsed.Seconds(), "pkts/s")
			b.ReportMetric(float64(elapsed.Nanoseconds())/float64(delivered), "ns/pkt")
			b.ReportMetric(float64(ms1.Mallocs-ms0.Mallocs)/float64(delivered), "allocs/pkt")
		})
	}
}
