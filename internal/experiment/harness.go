// Package experiment contains the reproduction harness: one runner per
// paper artifact (Tables 1-2, Figures 2-3, and the experiments the paper
// proposes in §2-§5), shared by cmd/adaptivebench and the root bench suite.
//
// Every runner builds a fresh deterministic simulation, drives workloads
// from internal/workload, and reports a text Table whose rows are the
// series the paper's artifact would show. EXPERIMENTS.md records the
// expected shapes.
package experiment

import (
	"fmt"
	"strings"
	"sync"
	"time"

	"adaptive"
	"adaptive/internal/mantts"
	"adaptive/internal/netapi"
	"adaptive/internal/netsim"
	"adaptive/internal/sim"
	"adaptive/internal/trace"
	"adaptive/internal/unites"
)

// Table is one regenerated artifact.
type Table struct {
	ID      string
	Title   string
	Headers []string
	Rows    [][]string
	Notes   []string
}

// Render formats the table as aligned text.
func (t *Table) Render() string {
	var b strings.Builder
	fmt.Fprintf(&b, "== %s: %s ==\n", t.ID, t.Title)
	widths := make([]int, len(t.Headers))
	for i, h := range t.Headers {
		widths[i] = len(h)
	}
	for _, row := range t.Rows {
		for i, c := range row {
			if i < len(widths) && len(c) > widths[i] {
				widths[i] = len(c)
			}
		}
	}
	line := func(cells []string) {
		for i, c := range cells {
			if i < len(widths) {
				fmt.Fprintf(&b, "%-*s  ", widths[i], c)
			} else {
				b.WriteString(c)
			}
		}
		b.WriteByte('\n')
	}
	line(t.Headers)
	for _, row := range t.Rows {
		line(row)
	}
	for _, n := range t.Notes {
		fmt.Fprintf(&b, "note: %s\n", n)
	}
	return b.String()
}

// Testbed is a deterministic two-or-more-host simulation with ADAPTIVE
// nodes.
type Testbed struct {
	K     *sim.Kernel
	Net   *netsim.Network
	Hosts []*netsim.Host
	Nodes []*adaptive.Node
	Links map[[2]int]*netsim.Link
	Repo  *unites.Repository
}

// NewTestbed builds n hosts fully meshed with per-direction links of the
// given configuration. Extra options (e.g. adaptive.WithArbiter) are applied
// to every node.
func NewTestbed(n int, link netsim.LinkConfig, seed int64, extra ...adaptive.Option) (*Testbed, error) {
	return newTracedTestbed(n, link, seed, nil, extra...)
}

// newTracedTestbed is NewTestbed with every node flight-recording into
// tracer (nil leaves the trace hooks off).
func newTracedTestbed(n int, link netsim.LinkConfig, seed int64, tracer *trace.Recorder, extra ...adaptive.Option) (*Testbed, error) {
	k := sim.NewKernel(seed)
	k.SetEventLimit(200_000_000)
	net := netsim.New(k)
	tb := &Testbed{K: k, Net: net, Links: make(map[[2]int]*netsim.Link), Repo: unites.NewRepository()}
	for i := 0; i < n; i++ {
		tb.Hosts = append(tb.Hosts, net.AddHost())
	}
	for i := 0; i < n; i++ {
		for j := 0; j < n; j++ {
			if i == j {
				continue
			}
			l := net.NewLink(link)
			net.SetRoute(tb.Hosts[i].ID(), tb.Hosts[j].ID(), l)
			tb.Links[[2]int{i, j}] = l
		}
	}
	for i := 0; i < n; i++ {
		opts := []adaptive.Option{
			adaptive.WithProvider(net),
			adaptive.WithHost(tb.Hosts[i].ID()),
			adaptive.WithSeed(seed + int64(i)),
			adaptive.WithObservability(adaptive.Observe{Repository: tb.Repo, Tracer: tracer}),
			adaptive.WithName(fmt.Sprintf("host%d", i)),
		}
		node, err := adaptive.NewNode(append(opts, extra...)...)
		if err != nil {
			return nil, err
		}
		tb.Nodes = append(tb.Nodes, node)
	}
	return tb, nil
}

// Link returns the simplex link from host i to host j.
func (tb *Testbed) Link(i, j int) *netsim.Link { return tb.Links[[2]int{i, j}] }

// SeedPaths propagates static path knowledge (bandwidth, RTT, BER, MTU of
// the i->j link) into node i's MANTTS network descriptor for all pairs.
func (tb *Testbed) SeedPaths() {
	for key, l := range tb.Links {
		cfg := l.Config()
		tb.Nodes[key[0]].SeedPath(tb.Hosts[key[1]].ID(), mantts.StaticPathInfo{
			Bandwidth: cfg.Bandwidth,
			RTT:       2 * cfg.PropDelay,
			BER:       cfg.BER,
			MTU:       cfg.MTU,
		})
	}
}

// fmtDur renders a duration with ms precision for table cells.
func fmtDur(d time.Duration) string {
	switch {
	case d <= 0:
		return "-"
	case d < time.Millisecond:
		return fmt.Sprintf("%.2fus", float64(d)/float64(time.Microsecond))
	case d < time.Second:
		return fmt.Sprintf("%.2fms", float64(d)/float64(time.Millisecond))
	default:
		return fmt.Sprintf("%.3fs", d.Seconds())
	}
}

// fmtBps renders a bit rate.
func fmtBps(bps float64) string {
	switch {
	case bps >= 1e9:
		return fmt.Sprintf("%.2f Gbps", bps/1e9)
	case bps >= 1e6:
		return fmt.Sprintf("%.2f Mbps", bps/1e6)
	case bps >= 1e3:
		return fmt.Sprintf("%.1f kbps", bps/1e3)
	default:
		return fmt.Sprintf("%.0f bps", bps)
	}
}

func fmtPct(f float64) string { return fmt.Sprintf("%.2f%%", f*100) }

// fmtQuantile renders a latency quantile (seconds-valued distribution) as a
// duration cell, using the log-bucketed histogram.
func fmtQuantile(d *unites.Distribution, q float64) string {
	if d == nil || d.Count == 0 {
		return "-"
	}
	return fmtDur(time.Duration(d.HistQuantile(q) * float64(time.Second)))
}

// Runner is one experiment.
type Runner struct {
	ID   string
	Name string
	Run  func() []Table
}

// All returns every experiment runner in presentation order.
func All() []Runner {
	return []Runner{
		{"T1", "Application transport service classes, validated end-to-end", RunT1},
		{"T2", "ADAPTIVE communication descriptor format", RunT2},
		{"F2", "Three-stage transformation latency", RunF2},
		{"F3", "Implicit vs explicit connection management", RunF3},
		{"E1", "Retransmission strategies across loss rates", RunE1},
		{"E2", "Overweight and underweight configurations", RunE2},
		{"E3", "Congestion policy: selective-repeat <-> go-back-n", RunE3},
		{"E4", "Route switch to satellite: retransmission -> FEC", RunE4},
		{"E5", "Dynamic binding vs customization", RunE5},
		{"E6", "TKO template cache", RunE6},
		{"E7", "Throughput preservation across channel speeds", RunE7},
		{"E8", "Teleconference membership dynamics", RunE8},
		{"E9", "Fault sweep: burst loss, link flap, partition", RunE9},
		{"E10", "Scale soak: many-session sharded simulation", RunE10},
		{"E12", "Cross-host session migration (fleet-scale segue)", RunE12},
		{"E13", "Shared-bottleneck bandwidth arbitration (host congestion manager)", RunE13},
		{"A1", "Ablation: delayed acknowledgments", RunA1},
		{"A2", "Ablation: FEC group size", RunA2},
		{"A3", "Ablation: NAK/retransmission throttling", RunA3},
	}
}

// RunAllParallel executes every experiment, fanning independent runners out
// across worker goroutines (each builds its own kernel, so runs are
// independent and deterministic). Results return in presentation order.
func RunAllParallel(workers int) []Table {
	runners := All()
	results := make([][]Table, len(runners))
	if workers < 1 {
		workers = 1
	}
	var wg sync.WaitGroup
	sem := make(chan struct{}, workers)
	for i, r := range runners {
		wg.Add(1)
		go func(i int, r Runner) {
			defer wg.Done()
			sem <- struct{}{}
			defer func() { <-sem }()
			results[i] = r.Run()
		}(i, r)
	}
	wg.Wait()
	var out []Table
	for _, ts := range results {
		out = append(out, ts...)
	}
	return out
}

// hostAddr is a convenience for node i's SAP address.
func (tb *Testbed) hostAddr(i int) netapi.Addr { return tb.Nodes[i].Addr() }
