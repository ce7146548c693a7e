// Teleconference: multicast voice with membership churn and run-time
// reconfiguration — the paper's motivating dynamic application ("a
// tele-conferencing application may switch between unicast and multicast as
// participants join and leave the conversation", §2.1B).
//
// One speaker streams 50 voice frames/second to a multicast group. Two
// listeners are present from the start; a third joins live, one leaves, and
// mid-call the MANTTS policy tightens FEC protection when measured loss
// crosses the ACD's TSA threshold.
//
//	go run ./examples/teleconference
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
	kernel := sim.NewKernel(7)
	network := netsim.New(kernel)

	// Speaker + three listeners on a 10 Mbps switched LAN with a slightly
	// lossy segment toward listener 2.
	hosts := make([]*netsim.Host, 4)
	nodes := make([]*adaptive.Node, 4)
	for i := range hosts {
		hosts[i] = network.AddHost()
	}
	for i := range hosts {
		for j := range hosts {
			if i == j {
				continue
			}
			cfg := netsim.LinkConfig{Bandwidth: 10e6, PropDelay: time.Millisecond, MTU: 1500}
			if j == 2 {
				cfg.DropRate = 0.03 // the flaky wing of the building
			}
			network.SetRoute(hosts[i].ID(), hosts[j].ID(), network.NewLink(cfg))
		}
	}
	for i := range hosts {
		n, err := adaptive.NewNode(adaptive.WithProvider(network), adaptive.WithHost(hosts[i].ID()), adaptive.WithSeed(int64(i)))
		if err != nil {
			log.Fatal(err)
		}
		nodes[i] = n
	}

	// Network-level group; hosts 1 and 2 are members at call start.
	group := network.NewGroup()
	network.Join(group, hosts[1].ID())
	network.Join(group, hosts[2].ID())

	// Listeners install meters when invited into the call.
	meters := make([]*workload.Meter, 4)
	for i := 1; i <= 3; i++ {
		i := i
		meters[i] = workload.NewMeter(kernel)
		nodes[i].OnMulticastJoin(func(c *adaptive.Conn, g adaptive.HostID) {
			fmt.Printf("[%8v] host %d joined the call (group %v, spec %v)\n", kernel.Now(), i, g, c.Spec())
			c.OnDelivery(meters[i].OnDeliver)
		})
	}

	// The speaker's ACD: interactive isochronous voice with a TSA rule
	// that tightens FEC when loss is measured above 2%.
	speaker := nodes[0]
	acd := &adaptive.ACD{
		Participants: []adaptive.Addr{
			{Host: group, Port: speaker.Addr().Port}, // group first
			nodes[1].Addr(), nodes[2].Addr(),
		},
		RemotePort: 5004,
		Quant: adaptive.QuantQoS{
			AvgThroughputBps: 192e3,
			MaxLatency:       150 * time.Millisecond,
			MaxJitter:        10 * time.Millisecond,
			LossTolerance:    0.05,
		},
		TSA: []adaptive.Rule{{
			Cond:    adaptive.Cond{Metric: adaptive.MetricLossRate, Op: adaptive.OpGT, Threshold: 0.02},
			Action:  adaptive.Action{Kind: adaptive.ActNotifyApp, Note: "loss above 2%, consider tightening FEC"},
			OneShot: true,
		}},
		TMC: adaptive.TMC{SampleRate: 100 * time.Millisecond},
	}
	speaker.Subscribe(func(connID uint32, n adaptive.Notification) {
		if n.Kind == adaptive.NotePolicyAction || n.Kind == adaptive.NotePeerReconfig {
			fmt.Printf("[%8v] speaker notification: %s\n", kernel.Now(), n.Detail)
		}
	})

	call, err := speaker.Dial(acd, &adaptive.DialOptions{LocalPort: 5004})
	if err != nil {
		log.Fatal(err)
	}
	tsc, _ := call.TSC()
	fmt.Printf("[%8v] call opened: %v, spec %v\n", kernel.Now(), tsc, call.Spec())

	voice := &workload.CBR{Timers: speaker.Stack().Timers(), Out: call, MsgSize: 480, Interval: 20 * time.Millisecond}
	kernel.Schedule(100*time.Millisecond, func() { voice.Start(0) })

	// t=3s: host 3 joins the live call.
	kernel.Schedule(3*time.Second, func() {
		fmt.Printf("[%8v] host 3 dials in\n", kernel.Now())
		network.Join(group, hosts[3].ID())
		call.AddParticipant(hosts[3].ID())
	})
	// t=5s: the speaker tightens FEC while streaming (explicit
	// reconfiguration; both ends segue without losing data).
	kernel.Schedule(5*time.Second, func() {
		fmt.Printf("[%8v] speaker tightens FEC group 8 -> 4 live\n", kernel.Now())
		call.Reconfigure(func(s *adaptive.Spec) { s.FECGroup = 4 })
	})
	// t=7s: host 1 hangs up.
	kernel.Schedule(7*time.Second, func() {
		fmt.Printf("[%8v] host 1 hangs up\n", kernel.Now())
		call.RemoveParticipant(hosts[1].ID())
		network.Leave(group, hosts[1].ID())
	})
	// t=9s: end of call.
	kernel.Schedule(9*time.Second, func() { voice.Stop() })

	kernel.RunUntil(10 * time.Second)

	fmt.Printf("\n--- call report (%d frames sent; hosts 1 and 3 were absent for part of the call) ---\n", voice.Generated)
	for i := 1; i <= 3; i++ {
		m := meters[i]
		if m.Messages == 0 {
			fmt.Printf("host %d: never joined\n", i)
			continue
		}
		fmt.Printf("host %d: %4d frames heard, p99 latency %6.2fms, mean jitter %5.2fms\n",
			i, m.Messages,
			m.Latency.Quantile(0.99)*1e3,
			m.Jitter.Mean()*1e3)
	}
	fmt.Printf("speaker: %d segues during the call, %d PDUs sent\n",
		call.Stats().Segues, call.Stats().SentPDUs)
}
