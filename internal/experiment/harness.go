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
	"adaptive/internal/netsim"
	"adaptive/internal/rig"
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

// newWorld builds the world the sim experiments stand on: n hosts fully meshed
// with per-direction links of one configuration on a kernel seeded seed, node i
// seeded seed+i and named host<i>. A non-nil tracer flight-records kernel and
// nodes; extra options (e.g. adaptive.WithArbiter) apply to every node.
func newWorld(n int, link netsim.LinkConfig, seed int64, tracer *trace.Recorder, extra ...adaptive.Option) *rig.World {
	w := rig.NewSim(seed, n)
	w.Trace(tracer)
	w.Mesh(link)
	for i := range w.Hosts {
		must(w.Node(i, seed+int64(i), fmt.Sprintf("host%d", i), extra...))
	}
	return w
}

// check panics on an error an experiment script has no answer to: they come
// from misuse of the rig (a port listened on twice, a dial without a
// provider), never from the simulated network.
func check(err error) {
	if err != nil {
		panic(err)
	}
}

// must is check for calls that also return a value.
func must[T any](v T, err error) T {
	check(err)
	return v
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
// duration cell.
func fmtQuantile(d *unites.Distribution, q float64) string {
	if d == nil || d.Count == 0 {
		return "-"
	}
	return fmtDur(time.Duration(d.Quantile(q) * float64(time.Second)))
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
func RunAllParallel(workers int) []Table { return runParallel(All(), workers) }

// runParallel is RunAllParallel over a chosen set of runners.
func runParallel(runners []Runner, workers int) []Table {
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
