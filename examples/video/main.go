// Video: distributional full-motion video under changing network
// conditions, with policy-driven adaptation.
//
// A server streams 30 fps compressed video (bursty VBR: large intra frames,
// small deltas) to a client over a 10 Mbps path. Two minutes in (simulated),
// cross traffic congests the bottleneck. The ACD's TSA rules respond the way
// §4.1.2 prescribes: the rate-control mechanism's inter-PDU gap grows
// ("increase the inter-PDU gap used by the rate control mechanism in
// response to perceived network congestion"), and the application is
// notified via call-back so it can switch to a coarser coding layer.
//
//	go run ./examples/video
package main

import (
	"fmt"
	"log"
	"time"

	"adaptive"
	"adaptive/internal/netsim"
	"adaptive/internal/sim"
	"adaptive/internal/workload"
)

func main() {
	kernel := sim.NewKernel(99)
	network := netsim.New(kernel)
	server, client := network.AddHost(), network.AddHost()
	mk := func() netsim.LinkConfig {
		return netsim.LinkConfig{Bandwidth: 10e6, PropDelay: 5 * time.Millisecond, MTU: 1500, QueueLen: 64000, DropRate: 0.002}
	}
	down := network.NewLink(mk())
	network.SetRoute(server.ID(), client.ID(), down)
	network.SetRoute(client.ID(), server.ID(), network.NewLink(mk()))

	srv, err := adaptive.NewNode(adaptive.WithProvider(network), adaptive.WithHost(server.ID()), adaptive.WithName("video-server"))
	if err != nil {
		log.Fatal(err)
	}
	cli, err := adaptive.NewNode(adaptive.WithProvider(network), adaptive.WithHost(client.ID()), adaptive.WithName("video-client"))
	if err != nil {
		log.Fatal(err)
	}

	meter := workload.NewMeter(kernel)
	cli.Listen(554, nil, func(c *adaptive.Conn) { c.OnDelivery(meter.OnDeliver) })

	// Full-motion video (comp): high throughput, delay sensitive,
	// moderately loss tolerant — plus TSA rules for congestion response.
	acd := &adaptive.ACD{
		Participants: []adaptive.Addr{cli.Addr()},
		RemotePort:   554,
		Quant: adaptive.QuantQoS{
			AvgThroughputBps:  4e6,
			PeakThroughputBps: 8e6,
			MaxLatency:        200 * time.Millisecond,
			MaxJitter:         30 * time.Millisecond,
			LossTolerance:     0.02,
		},
		TSA: []adaptive.Rule{
			{
				// Congestion response: halve the pacing rate.
				Cond:     adaptive.Cond{Metric: adaptive.MetricLossRate, Op: adaptive.OpGT, Threshold: 0.03},
				Action:   adaptive.Action{Kind: adaptive.ActScaleRate, Factor: 0.5},
				Cooldown: 2 * time.Second,
			},
			{
				// Tell the codec to drop an enhancement layer.
				Cond:     adaptive.Cond{Metric: adaptive.MetricLossRate, Op: adaptive.OpGT, Threshold: 0.03},
				Action:   adaptive.Action{Kind: adaptive.ActNotifyApp, Note: "congestion: drop enhancement layer"},
				Cooldown: 2 * time.Second,
			},
			{
				// Recovery response: restore rate when the path clears.
				Cond:     adaptive.Cond{Metric: adaptive.MetricLossRate, Op: adaptive.OpLT, Threshold: 0.005},
				Action:   adaptive.Action{Kind: adaptive.ActScaleRate, Factor: 1.5},
				Cooldown: 2 * time.Second,
			},
		},
		TMC: adaptive.TMC{SampleRate: 200 * time.Millisecond},
	}

	var rateLog []string
	var video *workload.VBR
	const fullLayerMean = 16000
	srv.Subscribe(func(_ uint32, n adaptive.Notification) {
		switch n.Kind {
		case adaptive.NotePolicyAction, adaptive.NoteAppLoss:
			rateLog = append(rateLog, fmt.Sprintf("[%8v] %s", kernel.Now(), n.Detail))
		}
		// The application-specific call-back path (§4.1.2): the codec
		// drops an enhancement layer when the transport reports
		// congestion.
		if n.Kind == adaptive.NotePolicyAction && video != nil &&
			n.Detail == `notify-app("congestion: drop enhancement layer")` {
			video.MeanSize = fullLayerMean / 4
			rateLog = append(rateLog, fmt.Sprintf("[%8v] codec: enhancement layer dropped (mean frame %d B)", kernel.Now(), video.MeanSize))
		}
	})

	stream, err := srv.Dial(acd, &adaptive.DialOptions{LocalPort: 554})
	if err != nil {
		log.Fatal(err)
	}
	tsc, _ := stream.TSC()
	fmt.Printf("stream opened: %v\nconfig: %v\n\n", tsc, stream.Spec())

	video = &workload.VBR{
		Timers: srv.Stack().Timers(), Out: stream,
		FrameRate: 30, MeanSize: fullLayerMean, Burst: 5, GroupLen: 12,
	}
	kernel.Schedule(50*time.Millisecond, func() { video.Start(0) })

	// Congestion window: cross traffic at 70% of the bottleneck during
	// [4s, 8s).
	kernel.Schedule(4*time.Second, func() {
		fmt.Println("[      4s] cross traffic begins (70% of bottleneck)")
		down.StartCrossTraffic(7e6, 1000)
	})
	kernel.Schedule(8*time.Second, func() {
		fmt.Println("[      8s] cross traffic ends; codec restores the full layer")
		down.StartCrossTraffic(0, 0)
		video.MeanSize = fullLayerMean
	})
	kernel.Schedule(12*time.Second, func() { video.Stop() })
	kernel.RunUntil(13 * time.Second)

	fmt.Println("\n--- policy actions during the stream ---")
	for _, l := range rateLog {
		fmt.Println(l)
	}
	fmt.Printf("\n--- delivered quality (%d frames sent, %.1f MB) ---\n",
		video.Generated, float64(video.BytesOut)/1e6)
	fmt.Printf("frames delivered intact: %d (%.1f%%)\n",
		meter.Messages, 100*float64(meter.Messages)/float64(video.Generated))
	fmt.Printf("p50/p99 frame latency: %.1f / %.1f ms\n",
		meter.Latency.Quantile(0.5)*1e3, meter.Latency.Quantile(0.99)*1e3)
	fmt.Printf("mean jitter: %.2f ms | bytes delivered: %.1f MB\n",
		meter.Jitter.Mean()*1e3, float64(meter.Bytes)/1e6)
	fmt.Printf("final pacing rate: %.2f Mbps (started at %.2f Mbps)\n",
		stream.Spec().RateBps/1e6, 8e6*1.1/1e6)
}
