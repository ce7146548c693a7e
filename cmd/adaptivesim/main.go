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
	"errors"
	"flag"
	"fmt"
	"io"
	"log"
	"os"
	"strings"
	"time"

	"adaptive"
	"adaptive/internal/measure"
	"adaptive/internal/mechanism"
	"adaptive/internal/netsim"
	"adaptive/internal/rig"
	"adaptive/internal/scenario"
	"adaptive/internal/unites"
	"adaptive/internal/wire"
	"adaptive/internal/workload"
)

func main() {
	if err := run(os.Args[1:], os.Stdout); err != nil {
		if errors.Is(err, flag.ErrHelp) {
			return
		}
		log.Fatal(err)
	}
}

// run is the command: flags from args, the report to out.
func run(args []string, out io.Writer) error {
	fs := flag.NewFlagSet("adaptivesim", flag.ContinueOnError)
	var (
		bw      = fs.Float64("bw", 10e6, "link bandwidth (bps)")
		rtt     = fs.Duration("rtt", 20*time.Millisecond, "path round-trip time")
		mtu     = fs.Int("mtu", 1500, "link MTU")
		drop    = fs.Float64("drop", 0, "random packet drop rate")
		ber     = fs.Float64("ber", 0, "bit error rate")
		queue   = fs.Int("queue", 1<<20, "bottleneck queue bytes")
		size    = fs.Int("size", 1<<20, "transfer size (bytes)")
		seed    = fs.Int64("seed", 42, "simulation seed")
		useACD  = fs.Bool("acd", false, "derive the config via MANTTS from QoS flags")
		latency = fs.Duration("latency", 0, "ACD max latency (with -acd)")
		lossTol = fs.Float64("loss-tol", 0, "ACD loss tolerance (with -acd, or spec flag)")

		recovery = fs.String("recovery", "selective-repeat", "none|go-back-n|selective-repeat|fec|fec-hybrid")
		window   = fs.Int("window", 32, "window size (PDUs)")
		conn     = fs.String("conn", "explicit-2way", "implicit|explicit-2way|explicit-3way")
		order    = fs.String("order", "sequenced", "sequenced|none")
		rate     = fs.Float64("rate", 0, "pacing rate bps (0 = unpaced)")
		metrics  = fs.Bool("metrics", false, "print the UNITES metric report")
		measureS = fs.String("measure", "", `measurement-language program, e.g.
	'collect rel., app. every 50ms; generate cbr size=160 interval=20ms count=500'
	(overrides -size; implies -metrics for the collected families)`)
		scenarioF = fs.String("scenario", "", "run a JSON scenario file instead of the flag-built topology (see internal/scenario and scenarios/)")
	)
	if err := fs.Parse(args); err != nil {
		return err
	}

	if *scenarioF != "" {
		return runScenario(out, *scenarioF, *metrics)
	}

	var mspec *measure.Spec
	if *measureS != "" {
		var err error
		mspec, err = measure.Parse(*measureS)
		if err != nil {
			return err
		}
	}

	w := rig.NewSim(*seed, 2)
	link := netsim.LinkConfig{
		Bandwidth: *bw, PropDelay: *rtt / 2, MTU: *mtu,
		DropRate: *drop, BER: *ber, QueueLen: *queue,
	}
	w.Mesh(link)
	na, err := w.Node(0, *seed, "sender")
	if err != nil {
		return err
	}
	nb, err := w.Node(1, *seed+1, "receiver")
	if err != nil {
		return err
	}
	w.SeedPaths()

	meter := workload.NewMeter(w.K)
	sink, err := w.Sink(nb, 80, *size, meter)
	if err != nil {
		return err
	}

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
			Window:       adaptive.WindowFixed,
			WindowSize:   *window,
			RateBps:      *rate,
			LossTolerant: *lossTol > 0,
			Graceful:     *lossTol == 0,
			Checksum:     wire.CkCRC32,
		}
		if spec.ConnMgmt, err = mechanism.ParseConnKind(kindArg(*conn, "2way", "explicit-2way", "3way", "explicit-3way")); err != nil {
			return err
		}
		if spec.Recovery, err = mechanism.ParseRecoveryKind(kindArg(*recovery, "gbn", "go-back-n", "sr", "selective-repeat")); err != nil {
			return err
		}
		if spec.Order, err = mechanism.ParseOrderKind(kindArg(*order, "none", "unordered")); err != nil {
			return err
		}
		c, err = na.DialSpec(spec, nb.Addr(), 1000, 80)
	}
	if err != nil {
		return err
	}
	fmt.Fprintf(out, "configuration: %v\n", c.Spec())

	if mspec != nil && mspec.Workload.Kind != measure.WorkloadNone {
		if len(mspec.TMC.Metrics) > 0 {
			c.Session().SetMetricSink(&unites.FilteredSink{Next: c.Session().MetricSink(), Allow: mspec.TMC.Metrics})
			*metrics = true
		}
		start, generated, err := mspec.Workload.Build(na.Stack().Timers(), c)
		if err != nil {
			return err
		}
		start()
		w.K.RunUntil(30 * time.Minute)
		fmt.Fprintf(out, "measurement program generated %d messages\n", generated())
	} else {
		g := &workload.Bulk{Out: c, TotalSize: *size, ChunkSize: 64 << 10}
		g.Start(w.K)
		w.K.RunUntil(30 * time.Minute)
	}

	st := c.Stats()
	if mspec != nil {
		fmt.Fprintf(out, "\ndelivered: %d bytes, last delivery at %v\n", sink.Bytes, meter.LastAt)
	} else {
		fmt.Fprintf(out, "\ntransfer: %d of %d bytes", sink.Bytes, *size)
		if sink.DoneAt > 0 {
			fmt.Fprintf(out, " in %v (%.2f Mbps goodput)", sink.DoneAt, float64(sink.Bytes)*8/sink.DoneAt.Seconds()/1e6)
		} else if meter.LastAt > 0 {
			fmt.Fprintf(out, " (incomplete; last delivery at %v)", meter.LastAt)
		}
		fmt.Fprintln(out)
	}
	fmt.Fprintf(out, "whitebox (sender):   %d PDUs sent, %d retransmissions, %d segues\n",
		st.SentPDUs, st.Retransmissions, st.Segues)
	if sink.Conn != nil {
		rst := sink.Conn.Stats()
		fmt.Fprintf(out, "whitebox (receiver): %d PDUs received, %d FEC-recovered, %d gaps abandoned\n",
			rst.RecvPDUs, rst.FECRecovered, rst.GapsAbandoned)
	}
	fmt.Fprintf(out, "blackbox: p50 chunk latency %.2f ms, p99 %.2f ms\n",
		meter.Latency.Quantile(0.5)*1e3, meter.Latency.Quantile(0.99)*1e3)
	if *metrics {
		fmt.Fprintln(out, "\nUNITES metric repository:")
		fmt.Fprint(out, w.Repo.Render())
	}
	return nil
}

// kindArg lower-cases a mechanism-kind flag and expands the short spellings
// the flag accepts beside the kind's own name (alias, name pairs).
func kindArg(s string, aliases ...string) string {
	s = strings.ToLower(s)
	for i := 0; i < len(aliases); i += 2 {
		if s == aliases[i] {
			return aliases[i+1]
		}
	}
	return s
}

// runScenario executes a declarative JSON scenario and reports per-session
// delivered QoS.
func runScenario(out io.Writer, path string, metrics bool) error {
	raw, err := os.ReadFile(path)
	if err != nil {
		return err
	}
	res, err := scenario.Load(raw)
	if err != nil {
		return err
	}
	fmt.Fprintf(out, "scenario complete at t=%v (simulated)\n\n", res.SimTime)
	for _, s := range res.Sessions {
		m := s.Meter
		fmt.Fprintf(out, "session %q  %v\n", s.Name, s.Spec)
		fmt.Fprintf(out, "  generated %d messages; delivered %d messages / %d bytes (%.2f%% loss)\n",
			s.Generated, m.Messages, m.Bytes, m.LossRate(s.Generated)*100)
		fmt.Fprintf(out, "  p50/p99 latency %.2f / %.2f ms, mean jitter %.2f ms, misordered %d\n",
			m.Latency.Quantile(0.5)*1e3, m.Latency.Quantile(0.99)*1e3, m.Jitter.Mean()*1e3, m.Misordered)
		fmt.Fprintf(out, "  sender: %d PDUs, %d retransmissions, %d FEC-recovered, %d segues\n",
			s.Sent.SentPDUs, s.Sent.Retransmissions, s.Sent.FECRecovered, s.Sent.Segues)
	}
	if metrics {
		fmt.Fprintln(out, "\nUNITES metric repository:")
		fmt.Fprint(out, res.Repo.Render())
	}
	return nil
}
