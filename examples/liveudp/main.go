// Live UDP: the identical ADAPTIVE stack over real sockets.
//
// Every other example (and every experiment) runs against the deterministic
// simulator; this one swaps the provider for internal/udpnet — real loopback
// UDP datagrams, real wall-clock timers — without changing a line of
// protocol code. It transfers 1 MB reliably through the batched datapath
// (frames laid into trains, written on a flush window), publishes the
// provider's batch counters on the node's observability endpoint, and prints
// the measured result plus the scraped udpnet metrics.
//
//	go run ./examples/liveudp
package main

import (
	"bufio"
	"bytes"
	"fmt"
	"log"
	"net/http"
	"strings"
	"time"

	"adaptive"
	"adaptive/internal/udpnet"
)

func main() {
	provider := udpnet.New(
		udpnet.WithSocketBuffers(4<<20, 4<<20),       // several MB for high-rate loopback
		udpnet.WithQueueLen(8192),                    // bounded loop queue; overflow = counted drops
		udpnet.WithBatch(32),                         // a full queue of 32 frames flushes at once
		udpnet.WithFlushWindow(200*time.Microsecond), // sends coalesce for at most 200 µs
	)
	defer provider.Close()

	sender, err := adaptive.NewNode(adaptive.WithProvider(provider), adaptive.WithHost(1), adaptive.WithName("udp-sender"),
		// The provider's batch counters ride the node's observability
		// endpoint: scrape /metrics and the udpnet.* gauges are there.
		adaptive.WithObservability(adaptive.Observe{
			Listen:   "127.0.0.1:0",
			Counters: provider.MetricCounters(),
		}))
	if err != nil {
		log.Fatal(err)
	}
	receiver, err := adaptive.NewNode(adaptive.WithProvider(provider), adaptive.WithHost(2), adaptive.WithName("udp-receiver"))
	if err != nil {
		log.Fatal(err)
	}

	payload := bytes.Repeat([]byte("real sockets, same transport system. "), 28000) // ~1 MB
	done := make(chan []byte, 1)

	// All interaction with connections happens on the provider's event
	// loop (the same single-threaded discipline the simulator enforces).
	provider.Wait(func() {
		var got []byte
		receiver.Listen(9000, nil, func(c *adaptive.Conn) {
			fmt.Printf("receiver: accepted %08x, spec %v\n", c.ConnID(), c.Spec())
			c.OnReceive(func(data []byte, eom bool) {
				got = append(got, data...)
				if len(got) >= len(payload) {
					select {
					case done <- got:
					default:
					}
				}
			})
		})
	})

	start := time.Now()
	provider.Wait(func() {
		conn, err := sender.Dial(&adaptive.ACD{
			Participants: []adaptive.Addr{receiver.Addr()},
			RemotePort:   9000,
			Quant:        adaptive.QuantQoS{AvgThroughputBps: 100e6},
			Qual:         adaptive.QualQoS{Ordered: true},
		}, nil)
		if err != nil {
			log.Fatal(err)
		}
		fmt.Printf("sender: dialed with spec %v\n", conn.Spec())
		if err := conn.Send(payload); err != nil {
			log.Fatal(err)
		}
	})

	select {
	case got := <-done:
		elapsed := time.Since(start)
		fmt.Printf("\ntransferred %d bytes over loopback UDP in %v (%.1f Mbps)\n",
			len(got), elapsed.Round(time.Millisecond),
			float64(len(got))*8/elapsed.Seconds()/1e6)
		fmt.Printf("intact: %v, loop-queue drops: %d\n",
			bytes.Equal(got, payload), provider.DroppedPosts())
		if !bytes.Equal(got, payload) {
			log.Fatal("corruption over UDP")
		}
		printUDPMetrics(sender.Observability().Addr())
	case <-time.After(30 * time.Second):
		log.Fatal("transfer timed out")
	}
}

// printUDPMetrics scrapes the node's Prometheus endpoint and echoes the
// udpnet_* lines — the batch datapath as an external monitor sees it.
func printUDPMetrics(addr string) {
	resp, err := http.Get("http://" + addr + "/metrics")
	if err != nil {
		log.Fatalf("scrape: %v", err)
	}
	defer resp.Body.Close()
	fmt.Println("\nudpnet counters from /metrics:")
	sc := bufio.NewScanner(resp.Body)
	for sc.Scan() {
		if strings.HasPrefix(sc.Text(), "adaptive_udpnet_") {
			fmt.Printf("  %s\n", sc.Text())
		}
	}
	if err := sc.Err(); err != nil {
		log.Fatalf("scrape read: %v", err)
	}
}
