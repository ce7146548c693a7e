package experiment

import (
	"fmt"
	"time"

	"adaptive"
	"adaptive/internal/mantts"
	"adaptive/internal/netapi"
	"adaptive/internal/netsim"
	"adaptive/internal/workload"
)

// RunE8 exercises explicit reconfiguration on a live teleconference
// (§4.1.2): participants join and leave mid-session via the out-of-band
// signaling channel, and the sender reconfigures the session (FEC group
// size) while streaming. Measured: join latency (invite to first delivered
// media), data continuity for established members across membership churn
// and the segue, and leave cleanliness.
func RunE8() []Table {
	t := Table{
		ID:      "E8",
		Title:   "Teleconference membership dynamics and live reconfiguration",
		Headers: []string{"event", "at", "observation"},
	}
	link := netsim.LinkConfig{Bandwidth: 10e6, PropDelay: 2 * time.Millisecond, MTU: 1500, DropRate: 0.005}
	w := newWorld(4, link, 8888, nil)
	w.SeedPaths()
	group := w.Net.NewGroup()

	meters := map[int]*workload.Meter{}
	joinedAt := map[int]time.Duration{}
	firstData := map[int]time.Duration{}
	for i := 1; i <= 3; i++ {
		i := i
		meters[i] = workload.NewMeter(w.K)
		w.Nodes[i].OnMulticastJoin(func(c *adaptive.Conn, g adaptive.HostID) {
			joinedAt[i] = w.K.Now()
			c.OnDelivery(func(d adaptive.Delivery) {
				if _, ok := firstData[i]; !ok {
					firstData[i] = w.K.Now()
				}
				meters[i].OnDeliver(d)
			})
		})
	}
	// Hosts 1,2 in the group from the start; host 3 joins later.
	w.Net.Join(group, w.Hosts[1])
	w.Net.Join(group, w.Hosts[2])

	acd := &mantts.ACD{
		Participants: []netapi.Addr{
			{Host: group, Port: w.Nodes[0].Addr().Port},
			w.Nodes[1].Addr(), w.Nodes[2].Addr(),
		},
		RemotePort: 80,
		Quant:      mantts.QuantQoS{AvgThroughputBps: 200e3, LossTolerance: 0.05, MaxJitter: 10 * time.Millisecond},
	}
	conn, err := w.Nodes[0].Dial(acd, &adaptive.DialOptions{LocalPort: 80})
	if err != nil {
		panic(err)
	}
	g := &workload.CBR{Timers: w.Nodes[0].Stack().Timers(), Out: conn, MsgSize: 480, Interval: 20 * time.Millisecond}
	w.K.Schedule(100*time.Millisecond, func() { g.Start(0) })

	var inviteAt time.Duration
	var host2AtJoin, host2AtLeave uint64
	var gapsBeforeSegue, gapsAfterRun uint64

	// t=2s: host 3 joins the live conference.
	w.K.Schedule(2*time.Second, func() {
		inviteAt = w.K.Now()
		w.Net.Join(group, w.Hosts[3])
		conn.AddParticipant(w.Hosts[3])
		host2AtJoin = meters[2].Messages
	})
	// t=4s: live reconfiguration — tighten FEC to group of 4 while
	// streaming.
	w.K.Schedule(4*time.Second, func() {
		gapsBeforeSegue = conn.Stats().GapsAbandoned
		conn.Reconfigure(func(s *adaptive.Spec) { s.FECGroup = 4 })
	})
	// t=6s: host 1 leaves.
	w.K.Schedule(6*time.Second, func() {
		conn.RemoveParticipant(w.Hosts[1])
		w.Net.Leave(group, w.Hosts[1])
		host2AtLeave = meters[2].Messages
	})
	// t=8s: stop.
	w.K.Schedule(8*time.Second, func() { g.Stop() })
	w.K.RunUntil(10 * time.Second)
	gapsAfterRun = conn.Stats().GapsAbandoned

	joinLatency := time.Duration(0)
	if fd, ok := firstData[3]; ok {
		joinLatency = fd - inviteAt
	}
	m2 := meters[2]
	expect2 := g.Generated // host 2 present throughout
	t.Rows = [][]string{
		{"conference start (hosts 1,2)", fmtDur(100 * time.Millisecond),
			fmt.Sprintf("members joined at %v / %v", fmtDur(joinedAt[1]), fmtDur(joinedAt[2]))},
		{"host 3 joins live", fmtDur(2 * time.Second),
			fmt.Sprintf("invite->first media: %s", fmtDur(joinLatency))},
		{"live FEC reconfiguration", fmtDur(4 * time.Second),
			fmt.Sprintf("segues=%d, host-2 stream uninterrupted (gaps before=%d after-run=%d)",
				conn.Stats().Segues, gapsBeforeSegue, gapsAfterRun)},
		{"host 1 leaves", fmtDur(6 * time.Second),
			fmt.Sprintf("host-1 stopped at %d msgs; host-2 went %d -> %d msgs",
				meters[1].Messages, host2AtJoin, host2AtLeave)},
		{"conference end", fmtDur(8 * time.Second),
			fmt.Sprintf("host-2 delivered %d/%d (%.2f%% loss) across all churn",
				m2.Messages, expect2, m2.LossRate(expect2)*100)},
	}
	t.Notes = append(t.Notes,
		"expected shape: join latency ~ one signaling round trip + invite processing;",
		"established members' streams continue through join, segue, and leave with loss within tolerance")
	return []Table{t}
}
