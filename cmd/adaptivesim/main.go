// Command adaptivesim runs one flag-configurable transfer scenario on the
// simulator and prints delivered QoS plus the UNITES metric report — the
// "controlled prototyping environment for monitoring, analyzing, and
// experimenting with the performance effects of alternative transport system
// designs" in CLI form.
//
// Usage examples:
//
//	adaptivesim -bw 10e6 -rtt 20ms -drop 0.01 -size 1048576
//	adaptivesim -recovery go-back-n -window 8 -drop 0.03
//	adaptivesim -recovery fec -loss-tol 0.05 -order none
//	adaptivesim -acd -latency 100ms -loss-tol 0.05   # let MANTTS derive
package main

import (
	"flag"
	"fmt"
	"log"
	"os"
	"strings"
	"time"

	"adaptive"
	"adaptive/internal/mantts"
	"adaptive/internal/measure"
	"adaptive/internal/netsim"
	"adaptive/internal/scenario"
	"adaptive/internal/sim"
	"adaptive/internal/unites"
	"adaptive/internal/wire"
	"adaptive/internal/workload"
)

func main() {
	var (
		bw      = flag.Float64("bw", 10e6, "link bandwidth (bps)")
		rtt     = flag.Duration("rtt", 20*time.Millisecond, "path round-trip time")
		mtu     = flag.Int("mtu", 1500, "link MTU")
		drop    = flag.Float64("drop", 0, "random packet drop rate")
		ber     = flag.Float64("ber", 0, "bit error rate")
		queue   = flag.Int("queue", 1<<20, "bottleneck queue bytes")
		size    = flag.Int("size", 1<<20, "transfer size (bytes)")
		seed    = flag.Int64("seed", 42, "simulation seed")
		useACD  = flag.Bool("acd", false, "derive the config via MANTTS from QoS flags")
		latency = flag.Duration("latency", 0, "ACD max latency (with -acd)")
		lossTol = flag.Float64("loss-tol", 0, "ACD loss tolerance (with -acd, or spec flag)")

		recovery = flag.String("recovery", "selective-repeat", "none|go-back-n|selective-repeat|fec|fec-hybrid")
		window   = flag.Int("window", 32, "window size (PDUs)")
		conn     = flag.String("conn", "explicit-2way", "implicit|explicit-2way|explicit-3way")
		order    = flag.String("order", "sequenced", "sequenced|none")
		rate     = flag.Float64("rate", 0, "pacing rate bps (0 = unpaced)")
		metrics  = flag.Bool("metrics", false, "print the UNITES metric report")
		measureS = flag.String("measure", "", `measurement-language program, e.g.
	'collect rel., app. every 50ms; generate cbr size=160 interval=20ms count=500'
	(overrides -size; implies -metrics for the collected families)`)
		scenarioF = flag.String("scenario", "", "run a JSON scenario file instead of the flag-built topology (see internal/scenario and scenarios/)")
	)
	flag.Parse()

	if *scenarioF != "" {
		runScenario(*scenarioF, *metrics)
		return
	}

	var mspec *measure.Spec
	if *measureS != "" {
		var err error
		mspec, err = measure.Parse(*measureS)
		if err != nil {
			log.Fatal(err)
		}
	}

	kernel := sim.NewKernel(*seed)
	kernel.SetEventLimit(500_000_000)
	network := netsim.New(kernel)
	a, b := network.AddHost(), network.AddHost()
	link := netsim.LinkConfig{
		Bandwidth: *bw, PropDelay: *rtt / 2, MTU: *mtu,
		DropRate: *drop, BER: *ber, QueueLen: *queue,
	}
	network.SetRoute(a.ID(), b.ID(), network.NewLink(link))
	network.SetRoute(b.ID(), a.ID(), network.NewLink(link))

	repo := unites.NewRepository()
	na, err := adaptive.NewNode(adaptive.WithProvider(network), adaptive.WithHost(a.ID()), adaptive.WithObservability(adaptive.Observe{Repository: repo}), adaptive.WithName("sender"), adaptive.WithSeed(*seed))
	if err != nil {
		log.Fatal(err)
	}
	nb, err := adaptive.NewNode(adaptive.WithProvider(network), adaptive.WithHost(b.ID()), adaptive.WithObservability(adaptive.Observe{Repository: repo}), adaptive.WithName("receiver"), adaptive.WithSeed(*seed+1))
	if err != nil {
		log.Fatal(err)
	}
	na.SeedPath(b.ID(), mantts.StaticPathInfo{Bandwidth: *bw, RTT: *rtt, BER: *ber, MTU: *mtu})

	meter := workload.NewMeter(kernel)
	var gotBytes int
	var doneAt time.Duration
	var rx *adaptive.Conn
	nb.Listen(80, nil, func(c *adaptive.Conn) {
		rx = c
		c.OnDelivery(func(d adaptive.Delivery) {
			gotBytes += d.Msg.Len()
			if gotBytes >= *size && doneAt == 0 {
				doneAt = kernel.Now()
			}
			meter.OnDeliver(d)
		})
	})

	var c *adaptive.Conn
	if *useACD {
		c, err = na.Dial(&adaptive.ACD{
			Participants: []adaptive.Addr{nb.Addr()},
			RemotePort:   80,
			Quant: adaptive.QuantQoS{
				AvgThroughputBps: *bw * 0.8, MaxLatency: *latency, LossTolerance: *lossTol,
			},
			Qual: adaptive.QualQoS{Ordered: *order == "sequenced"},
		}, nil)
	} else {
		spec := adaptive.Spec{
			ConnMgmt:     parseConn(*conn),
			Recovery:     parseRecovery(*recovery),
			Window:       adaptive.WindowFixed,
			WindowSize:   *window,
			Order:        parseOrder(*order),
			RateBps:      *rate,
			LossTolerant: *lossTol > 0,
			Graceful:     *lossTol == 0,
			Checksum:     wire.CkCRC32,
		}
		c, err = na.DialSpec(spec, nb.Addr(), 1000, 80)
	}
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("configuration: %v\n", c.Spec())

	if mspec != nil && mspec.Workload.Kind != measure.WorkloadNone {
		if len(mspec.TMC.Metrics) > 0 {
			c.Session().SetMetricSink(&unites.FilteredSink{Next: c.Session().MetricSink(), Allow: mspec.TMC.Metrics})
			*metrics = true
		}
		start, generated, err := mspec.Workload.Build(na.Stack().Timers(), c)
		if err != nil {
			log.Fatal(err)
		}
		start()
		kernel.RunUntil(30 * time.Minute)
		fmt.Printf("measurement program generated %d messages\n", generated())
	} else {
		g := &workload.Bulk{Out: c, TotalSize: *size, ChunkSize: 64 << 10}
		g.Start(kernel)
		kernel.RunUntil(30 * time.Minute)
	}

	st := c.Stats()
	if mspec != nil {
		fmt.Printf("\ndelivered: %d bytes, last delivery at %v\n", gotBytes, meter.LastAt)
	} else {
		fmt.Printf("\ntransfer: %d of %d bytes", gotBytes, *size)
		if doneAt > 0 {
			fmt.Printf(" in %v (%.2f Mbps goodput)", doneAt, float64(gotBytes)*8/doneAt.Seconds()/1e6)
		} else if meter.LastAt > 0 {
			fmt.Printf(" (incomplete; last delivery at %v)", meter.LastAt)
		}
		fmt.Println()
	}
	fmt.Printf("whitebox (sender):   %d PDUs sent, %d retransmissions, %d segues\n",
		st.SentPDUs, st.Retransmissions, st.Segues)
	if rx != nil {
		rst := rx.Stats()
		fmt.Printf("whitebox (receiver): %d PDUs received, %d FEC-recovered, %d gaps abandoned\n",
			rst.RecvPDUs, rst.FECRecovered, rst.GapsAbandoned)
	}
	fmt.Printf("blackbox: p50 chunk latency %.2f ms, p99 %.2f ms\n",
		meter.Latency.Quantile(0.5)*1e3, meter.Latency.Quantile(0.99)*1e3)
	if *metrics {
		fmt.Println("\nUNITES metric repository:")
		fmt.Print(repo.Render())
	}
}

func parseRecovery(s string) mechanismRecovery {
	switch strings.ToLower(s) {
	case "none":
		return adaptive.RecoveryNone
	case "go-back-n", "gbn":
		return adaptive.RecoveryGoBackN
	case "selective-repeat", "sr":
		return adaptive.RecoverySelectiveRepeat
	case "fec":
		return adaptive.RecoveryFEC
	case "fec-hybrid":
		return adaptive.RecoveryFECHybrid
	}
	fmt.Fprintf(os.Stderr, "unknown recovery %q\n", s)
	os.Exit(2)
	return 0
}

func parseConn(s string) mechanismConn {
	switch strings.ToLower(s) {
	case "implicit":
		return adaptive.ConnImplicit
	case "explicit-2way", "2way":
		return adaptive.ConnExplicit2Way
	case "explicit-3way", "3way":
		return adaptive.ConnExplicit3Way
	}
	fmt.Fprintf(os.Stderr, "unknown conn mgmt %q\n", s)
	os.Exit(2)
	return 0
}

func parseOrder(s string) mechanismOrder {
	switch strings.ToLower(s) {
	case "sequenced":
		return adaptive.OrderSequenced
	case "none", "unordered":
		return adaptive.OrderNone
	}
	fmt.Fprintf(os.Stderr, "unknown order %q\n", s)
	os.Exit(2)
	return 0
}

// Concrete kind types via the re-exported constants.
type (
	mechanismRecovery = adaptive.RecoveryKind
	mechanismConn     = adaptive.ConnKind
	mechanismOrder    = adaptive.OrderKind
)

// runScenario executes a declarative JSON scenario and reports per-session
// delivered QoS.
func runScenario(path string, metrics bool) {
	raw, err := os.ReadFile(path)
	if err != nil {
		log.Fatal(err)
	}
	res, err := scenario.Load(raw)
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("scenario complete at t=%v (simulated)\n\n", res.SimTime)
	for _, s := range res.Sessions {
		m := s.Meter
		fmt.Printf("session %q  %v\n", s.Name, s.Spec)
		fmt.Printf("  generated %d messages; delivered %d messages / %d bytes (%.2f%% loss)\n",
			s.Generated, m.Messages, m.Bytes, m.LossRate(s.Generated)*100)
		fmt.Printf("  p50/p99 latency %.2f / %.2f ms, mean jitter %.2f ms, misordered %d\n",
			m.Latency.Quantile(0.5)*1e3, m.Latency.Quantile(0.99)*1e3, m.Jitter.Mean()*1e3, m.Misordered)
		fmt.Printf("  sender: %d PDUs, %d retransmissions, %d FEC-recovered, %d segues\n",
			s.Sent.SentPDUs, s.Sent.Retransmissions, s.Sent.FECRecovered, s.Sent.Segues)
	}
	if metrics {
		fmt.Println("\nUNITES metric repository:")
		fmt.Print(res.Repo.Render())
	}
}
