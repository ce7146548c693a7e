// A/V sync: temporal synchronization of related media streams — the
// "temporal synchronization (tele-conferencing)" requirement of §2.1B,
// layered on two MANTTS-coordinated sessions with different network fates.
//
// Audio travels a fast LAN segment (~3 ms transit); video a congested
// segment (~45 ms, jittery). Without synchronization the receiver would
// play sound 40+ ms ahead of pictures. The playout-point synchronizer
// releases both streams at capture time + one shared delay budget, and the
// host bandwidth arbiter divides the uplink between the two sessions by
// priority.
//
//	go run ./examples/avsync
package main

import (
	"encoding/binary"
	"fmt"
	"log"
	"time"

	"adaptive"
	"adaptive/internal/mediasync"
	"adaptive/internal/message"
	"adaptive/internal/netsim"
	"adaptive/internal/sim"
	"adaptive/internal/unites"
)

func main() {
	kernel := sim.NewKernel(31)
	network := netsim.New(kernel)
	src, dst := network.AddHost(), network.AddHost()
	// One host pair, but media classes see different path behaviour
	// (modeled as a shared route with jitter; video frames are larger so
	// they queue behind cross traffic more).
	fwd := network.NewLink(netsim.LinkConfig{Bandwidth: 10e6, PropDelay: 3 * time.Millisecond, MTU: 1500, Jitter: 4 * time.Millisecond, QueueLen: 1 << 20})
	rev := network.NewLink(netsim.LinkConfig{Bandwidth: 10e6, PropDelay: 3 * time.Millisecond, MTU: 1500})
	network.SetRoute(src.ID(), dst.ID(), fwd)
	network.SetRoute(dst.ID(), src.ID(), rev)
	fwd.StartCrossTraffic(6e6, 1200) // the congestion that skews video

	sender, err := adaptive.NewNode(adaptive.WithProvider(network), adaptive.WithHost(src.ID()), adaptive.WithName("studio"),
		adaptive.WithArbiter(adaptive.DefaultArbiterPolicy()))
	if err != nil {
		log.Fatal(err)
	}
	receiver, err := adaptive.NewNode(adaptive.WithProvider(network), adaptive.WithHost(dst.ID()), adaptive.WithName("viewer"))
	if err != nil {
		log.Fatal(err)
	}

	// The receiver runs one synchronizer for both streams with an 80 ms
	// playout budget, and measures what arrival skew looked like first.
	arrivalSkew := unites.NewDistribution()
	playSkew := unites.NewDistribution()
	// Skew is measured between the audio and video units that share a
	// capture instant (video runs at half the audio cadence, so only
	// co-captured pairs compare).
	arrivals := map[time.Duration]map[int]time.Duration{}
	plays := map[time.Duration]map[int]time.Duration{}
	note := func(byCapture map[time.Duration]map[int]time.Duration, dist *unites.Distribution, stream int, captured time.Duration) {
		m, ok := byCapture[captured]
		if !ok {
			m = map[int]time.Duration{}
			byCapture[captured] = m
		}
		m[stream] = kernel.Now()
		if a, okA := m[1]; okA {
			if v, okV := m[2]; okV {
				d := (a - v).Seconds()
				if d < 0 {
					d = -d
				}
				dist.Add(d * 1e3) // ms
				delete(byCapture, captured)
			}
		}
	}
	sy := mediasync.New(receiver.Stack().Timers(), 80*time.Millisecond, func(u mediasync.Unit) {
		note(plays, playSkew, u.Stream, u.Captured)
		u.Msg.Release()
	})

	accept := func(stream int) func(*adaptive.Conn) {
		return func(c *adaptive.Conn) {
			// Reassemble transport segments into media units (frames):
			// only the completed frame carries a meaningful capture stamp.
			var frame []byte
			c.OnReceive(func(data []byte, eom bool) {
				frame = append(frame, data...)
				if !eom {
					return
				}
				if len(frame) >= 8 {
					captured := time.Duration(binary.BigEndian.Uint64(frame))
					note(arrivals, arrivalSkew, stream, captured)
					sy.Submit(stream, captured, message.NewFromBytes(frame))
				}
				frame = nil
			})
		}
	}
	receiver.Listen(5004, nil, accept(1)) // audio
	receiver.Listen(5006, nil, accept(2)) // video

	// Two related sessions from one ACD family. Either may burst to the
	// whole uplink, so the sender's arbiter shares it between them by
	// priority: weight priority+1, audio 1 : video 3.
	mediaACD := func(port uint16, avg float64, prio int) *adaptive.ACD {
		return &adaptive.ACD{
			Participants: []adaptive.Addr{receiver.Addr()},
			RemotePort:   port,
			Quant: adaptive.QuantQoS{
				AvgThroughputBps:  avg,
				PeakThroughputBps: 8e6,
				MaxLatency:        150 * time.Millisecond,
				MaxJitter:         20 * time.Millisecond,
				LossTolerance:     0.05,
			},
			Qual: adaptive.QualQoS{Priority: prio},
		}
	}
	sender.SeedPath(dst.ID(), adaptive.StaticPathInfo{Bandwidth: 8e6, RTT: 6 * time.Millisecond, MTU: 1500})
	audio, err := sender.Dial(mediaACD(5004, 64e3, 0), &adaptive.DialOptions{LocalPort: 5004})
	if err != nil {
		log.Fatal(err)
	}
	video, err := sender.Dial(mediaACD(5006, 2e6, 2), &adaptive.DialOptions{LocalPort: 5006})
	if err != nil {
		log.Fatal(err)
	}
	// Keep each stream's first grant: the split of the seeded 8 Mbps. Later
	// grants grow as the estimate probes a link these light streams never fill.
	var audioBps, videoBps float64
	first := func(dst *float64) func(float64) {
		return func(bps float64) {
			if *dst == 0 {
				*dst = bps
			}
		}
	}
	audio.OnBudgetChange(first(&audioBps))
	video.OnBudgetChange(first(&videoBps))
	fmt.Printf("audio session: %v\nvideo session: %v\n\n", audio.Spec(), video.Spec())

	// Capture loop: every 20 ms an audio frame and (every 40 ms) a video
	// frame stamped with the same capture clock.
	tick := 0
	sender.Stack().Timers().SchedulePeriodic(0, 20*time.Millisecond, func() {
		captured := kernel.Now()
		stamp := func(size int) []byte {
			b := make([]byte, size)
			binary.BigEndian.PutUint64(b, uint64(captured))
			return b
		}
		audio.Send(stamp(160))
		if tick%2 == 0 {
			video.Send(stamp(9000))
		}
		tick++
	})

	kernel.RunUntil(10 * time.Second)

	fmt.Printf("arrival skew between streams: mean %.1f ms, p95 %.1f ms\n",
		arrivalSkew.Mean(), arrivalSkew.Quantile(0.95))
	fmt.Printf("playout skew after synchronization: mean %.2f ms, p95 %.2f ms\n",
		playSkew.Mean(), playSkew.Quantile(0.95))
	fmt.Printf("arbiter's first grants: audio %.2f Mbps, video %.2f Mbps (weights 1:3 of the seeded 8 Mbps uplink)\n",
		audioBps/1e6, videoBps/1e6)
	a, v := sy.Stats(1), sy.Stats(2)
	fmt.Printf("audio: %d played, %d late | video: %d played, %d late (budget 80 ms, video max transit %v)\n",
		a.Played, a.Late, v.Played, v.Late, v.MaxTransit.Round(time.Millisecond))
}
