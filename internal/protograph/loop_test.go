package protograph

import (
	"encoding/binary"
	"fmt"
	"testing"
	"time"

	"adaptive/internal/mechanism"
	"adaptive/internal/message"
	"adaptive/internal/netsim"
	"adaptive/internal/session"
	"adaptive/internal/sim"
	"adaptive/internal/udpnet"
)

// The free lists of a provider's loop (LoopCache) are touched by nothing but
// the goroutine running that loop; everything else recycles through the
// shared tier. These tests exercise both sides of that boundary at once, and
// mean most under -race.

// TestLiveAppReleasesOffLoop: over UDP loopback, the application keeps every
// delivered message and releases it from its own goroutine while the loop
// goes on sending, receiving and recycling on its lists. Every byte must
// arrive intact and in order, and poison mode must see no write after
// release.
func TestLiveAppReleasesOffLoop(t *testing.T) {
	defer message.SetPoison(message.SetPoison(true))
	p := udpnet.New(udpnet.WithQueueLen(1 << 14))
	defer p.Close()
	sa, err := NewStack(Config{Provider: p, Host: 1, Seed: 1})
	if err != nil {
		t.Fatal(err)
	}
	sb, err := NewStack(Config{Provider: p, Host: 2, Seed: 2})
	if err != nil {
		t.Fatal(err)
	}
	const bursts, perBurst, size = 10, 100, 1000
	kept := make(chan *message.Message, bursts*perBurst)
	p.Wait(func() {
		sb.Listen(80, &Listener{OnAccept: func(s *session.Session) {
			s.SetReceiver(func(d session.Delivery) { kept <- d.Msg })
		}})
	})
	var s *session.Session
	p.Wait(func() {
		spec := mechanism.DefaultSpec()
		s, _, err = sa.CreateActiveSession(&spec, sb.LocalAddr(), 1000, 80)
		if err == nil {
			s.Open()
		}
	})
	if err != nil {
		t.Fatal(err)
	}

	done := make(chan error, 1)
	go func() { // the application, off the loop
		for i := 0; i < bursts*perBurst; i++ {
			select {
			case m := <-kept:
				b := m.Bytes()
				if len(b) != size || binary.BigEndian.Uint32(b) != uint32(i) || b[size-1] != byte(i) {
					done <- fmt.Errorf("message %d missing or corrupted", i)
					return
				}
				m.Release()
			case <-time.After(20 * time.Second):
				done <- fmt.Errorf("message %d not delivered within 20 s", i)
				return
			}
		}
		done <- nil
	}()
	data := make([]byte, size)
	for burst := 0; burst < bursts; burst++ {
		p.Wait(func() {
			for i := burst * perBurst; i < (burst+1)*perBurst; i++ {
				binary.BigEndian.PutUint32(data, uint32(i))
				data[size-1] = byte(i)
				s.Send(data)
			}
		})
	}
	if err := <-done; err != nil {
		t.Fatal(err)
	}
}

// TestShardKernelsKeepTheirOwnLists: two simulator shards, each a kernel
// with its own network and stacks, carry session traffic on two workers at
// once. Each shard's lists belong to its network, so only the worker running
// that shard touches them; the shared tier between them is the only state
// they have in common.
func TestShardKernelsKeepTheirOwnLists(t *testing.T) {
	defer message.SetPoison(message.SetPoison(true))
	const total = 400 << 10
	got := sim.RunSharded(sim.ShardGroup{Seed: 5, Shards: 2, Workers: 2}, func(shard int, k *sim.Kernel) int {
		n := netsim.New(k)
		ha, hb := n.AddHost(), n.AddHost()
		n.SetRoute(ha.ID(), hb.ID(), n.NewLink(fastLink()))
		n.SetRoute(hb.ID(), ha.ID(), n.NewLink(fastLink()))
		sa, err := NewStack(Config{Provider: n, Host: ha.ID(), Seed: int64(shard)})
		if err != nil {
			return -1
		}
		sb, err := NewStack(Config{Provider: n, Host: hb.ID(), Seed: int64(shard) + 1})
		if err != nil {
			return -1
		}
		delivered := 0
		sb.Listen(80, &Listener{OnAccept: func(s *session.Session) {
			s.SetReceiver(func(d session.Delivery) {
				delivered += d.Msg.Len()
				d.Msg.Release()
			})
		}})
		spec := mechanism.DefaultSpec()
		s, _, err := sa.CreateActiveSession(&spec, sb.LocalAddr(), 1000, 80)
		if err != nil {
			return -1
		}
		s.Open()
		s.Send(make([]byte, total))
		k.RunUntil(5 * time.Second)
		return delivered
	})
	for shard, n := range got {
		if n != total {
			t.Fatalf("shard %d delivered %d of %d bytes", shard, n, total)
		}
	}
}
