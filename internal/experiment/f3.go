package experiment

import (
	"fmt"
	"time"

	"adaptive"
	"adaptive/internal/netsim"
	"adaptive/internal/workload"
)

// RunF3 reproduces the Figure 3 comparison: connection configuration via
// implicit negotiation (config piggybacked on the first data PDU) versus
// explicit 2-way and 3-way handshakes, across one-way path delays. The
// measured series are time-to-first-byte at the receiver and completion
// time of a short request-sized transfer — the workload the paper says
// implicit setup exists for ("latency-sensitive request-response style
// network file servers that must not incur any QoS negotiation delay").
func RunF3() []Table {
	t := Table{
		ID:      "F3",
		Title:   "Figure 3 — connection configuration: implicit vs explicit handshakes",
		Headers: []string{"one-way delay", "conn mgmt", "first byte", "10 KB done", "handshake PDUs"},
	}
	delays := []time.Duration{time.Millisecond, 10 * time.Millisecond, 50 * time.Millisecond, 200 * time.Millisecond}
	for _, d := range delays {
		for _, cm := range []struct {
			name string
			kind int
		}{
			{"implicit", 0}, {"explicit-2way", 1}, {"explicit-3way", 2},
		} {
			fb, done, pdus := runF3Case(d, cm.kind)
			t.Rows = append(t.Rows, []string{
				fmtDur(d), cm.name, fmtDur(fb), fmtDur(done), fmt.Sprintf("%d", pdus),
			})
		}
	}
	t.Notes = append(t.Notes,
		"expected shape: implicit saves ~1 RTT (2-way) / ~1 RTT (3-way sender-side) and the gap grows linearly with delay",
		"10 Mbps link, 10 KB transfer, selective-repeat, window 32")
	return []Table{t}
}

func runF3Case(delay time.Duration, connKind int) (firstByte, done time.Duration, handshakePDUs uint64) {
	link := netsim.LinkConfig{Bandwidth: 10e6, PropDelay: delay, MTU: 1500}
	w := newWorld(2, link, 77, nil)
	w.SeedPaths()

	var first, last time.Duration
	var got int
	const total = 10 << 10
	check(w.Nodes[1].Listen(80, nil, func(c *adaptive.Conn) {
		c.OnReceive(func(data []byte, eom bool) {
			if got == 0 {
				first = w.K.Now()
			}
			got += len(data)
			if got >= total {
				last = w.K.Now()
			}
		})
	}))

	spec := adaptive.Spec{
		Recovery:   adaptive.RecoverySelectiveRepeat,
		Window:     adaptive.WindowFixed,
		Order:      adaptive.OrderSequenced,
		WindowSize: 32,
	}
	switch connKind {
	case 0:
		spec.ConnMgmt = adaptive.ConnImplicit
	case 1:
		spec.ConnMgmt = adaptive.ConnExplicit2Way
	default:
		spec.ConnMgmt = adaptive.ConnExplicit3Way
	}
	conn, err := w.Nodes[0].DialSpec(spec, w.Nodes[1].Addr(), 1000, 80)
	if err != nil {
		panic(err)
	}
	conn.Send(workload.Stamp(0, w.K.Now(), total))
	w.K.RunUntil(time.Minute)
	return first, last, uint64(handshakeCount(connKind))
}

// handshakeCount is the analytic handshake PDU count per scheme (sender +
// receiver control PDUs before data flows).
func handshakeCount(connKind int) int {
	switch connKind {
	case 0:
		return 0
	case 1:
		return 2
	default:
		return 3
	}
}
