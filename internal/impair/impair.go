// Package impair is a software network-impairment shim: a netapi.Provider
// wrapper that drops, duplicates, and reorders packets at the endpoint with
// a seeded pseudo-random process. It stands in for kernel facilities like
// netem, so lossy-network experiments run identically over the simulator and
// over real UDP sockets — the same Config and Seed produce the same class of
// impairment in both environments, without privileges or qdisc setup.
//
// The shim impairs the send side only: a dropped packet is acknowledged to
// the caller as sent (the netapi congestion-loss contract), a reordered one
// is re-injected after ReorderDelay via the provider's own clock, so delayed
// sends fire on the wrapped provider's event loop like any other timer.
package impair

import (
	"math/rand"
	"sync"
	"sync/atomic"
	"time"

	"adaptive/internal/netapi"
)

// Config sets the impairment process. Zero values disable each impairment;
// the zero Config passes all traffic through untouched.
type Config struct {
	// Seed feeds the deterministic impairment decisions.
	Seed int64
	// Loss is the per-packet drop probability [0,1).
	Loss float64
	// DupRate is the per-packet duplication probability [0,1).
	DupRate float64
	// ReorderRate is the probability a packet is held back and re-injected
	// after ReorderDelay, arriving behind its successors.
	ReorderRate float64
	// ReorderDelay is how long a reordered packet is held (default 2ms).
	ReorderDelay time.Duration
}

// Active reports whether the configuration impairs anything.
func (c Config) Active() bool {
	return c.Loss > 0 || c.DupRate > 0 || c.ReorderRate > 0
}

// Counters is a snapshot of what the shim did.
type Counters struct {
	Forwarded, Dropped, Duplicated, Reordered uint64
}

// Provider wraps an inner netapi.Provider, impairing every endpoint it
// opens. The clock, host registry, and delivery semantics stay the inner
// provider's own.
type Provider struct {
	inner netapi.Provider
	cfg   Config

	// The rng is mutex-guarded rather than loop-confined: protocol sends
	// run on the inner provider's event loop, but nothing in the netapi
	// contract forbids an application sending from elsewhere.
	mu  sync.Mutex
	rng *rand.Rand

	forwarded  atomic.Uint64
	dropped    atomic.Uint64
	duplicated atomic.Uint64
	reordered  atomic.Uint64
}

var _ netapi.Provider = (*Provider)(nil)

// Wrap impairs inner with cfg.
func Wrap(inner netapi.Provider, cfg Config) *Provider {
	if cfg.ReorderDelay <= 0 {
		cfg.ReorderDelay = 2 * time.Millisecond
	}
	return &Provider{inner: inner, cfg: cfg, rng: rand.New(rand.NewSource(cfg.Seed))}
}

// Clock returns the inner provider's clock.
func (p *Provider) Clock() netapi.Clock { return p.inner.Clock() }

// Open opens an endpoint on the inner provider and returns it wrapped with
// the impairment process.
func (p *Provider) Open(host netapi.HostID, port uint16) (netapi.Endpoint, error) {
	ep, err := p.inner.Open(host, port)
	if err != nil {
		return nil, err
	}
	return &endpoint{Endpoint: ep, p: p}, nil
}

// Wait runs fn on the inner provider's event loop when it has one (udpnet),
// with that provider's semantics: fn does not run once the loop has stopped.
// Without one (the simulator) it runs fn inline.
func (p *Provider) Wait(fn func()) {
	if w, ok := p.inner.(interface{ Wait(func()) }); ok {
		w.Wait(fn)
		return
	}
	fn()
}

// DroppedPackets returns the cumulative packets discarded by the fault
// plan. The node's bandwidth arbiter polls it as an ECN-like environment
// congestion hint; safe from any goroutine.
func (p *Provider) DroppedPackets() uint64 { return p.dropped.Load() }

// Counters snapshots the impairment tallies.
func (p *Provider) Counters() Counters {
	return Counters{
		Forwarded:  p.forwarded.Load(),
		Dropped:    p.dropped.Load(),
		Duplicated: p.duplicated.Load(),
		Reordered:  p.reordered.Load(),
	}
}

// verdicts of the per-packet draw.
const (
	passPkt = iota
	dropPkt
	dupPkt
	reorderPkt
)

// draw classifies one packet. The three probabilities partition [0,1).
func (p *Provider) draw() int {
	p.mu.Lock()
	u := p.rng.Float64()
	p.mu.Unlock()
	switch {
	case u < p.cfg.Loss:
		return dropPkt
	case u < p.cfg.Loss+p.cfg.DupRate:
		return dupPkt
	case u < p.cfg.Loss+p.cfg.DupRate+p.cfg.ReorderRate:
		return reorderPkt
	}
	return passPkt
}

// endpoint passes SetReceiver/LocalAddr/Close through to the inner
// endpoint and impairs Send.
type endpoint struct {
	netapi.Endpoint
	p *Provider
}

// SetBatchReceiver passes a batched receive upcall through to the inner
// endpoint when it supports batching. The shim impairs the send side only,
// so receive batches flow through untouched; over a non-batching inner
// provider the call is a no-op and delivery stays on the per-packet
// Receiver (which callers install alongside, per the netapi contract).
func (e *endpoint) SetBatchReceiver(r netapi.BatchReceiver) {
	if be, ok := e.Endpoint.(netapi.BatchEndpoint); ok {
		be.SetBatchReceiver(r)
	}
}

func (e *endpoint) Send(pkt []byte, dst netapi.Addr) error {
	switch e.p.draw() {
	case dropPkt:
		e.p.dropped.Add(1)
		return nil // silently lost, per the congestion-loss contract
	case dupPkt:
		e.p.duplicated.Add(1)
		if err := e.Endpoint.Send(pkt, dst); err != nil {
			return err
		}
	case reorderPkt:
		e.p.reordered.Add(1)
		// The caller may reuse pkt (pooled message buffers) the moment
		// Send returns, so the held copy must be private.
		held := append([]byte(nil), pkt...)
		e.p.Clock().AfterFunc(e.p.cfg.ReorderDelay, func() {
			e.Endpoint.Send(held, dst)
		})
		return nil
	}
	e.p.forwarded.Add(1)
	return e.Endpoint.Send(pkt, dst)
}
