// Command adaptivebench regenerates every table and figure of the ADAPTIVE
// reproduction (see DESIGN.md §4 for the experiment index and EXPERIMENTS.md
// for recorded results).
//
// Usage:
//
//	adaptivebench                  # run everything
//	adaptivebench -experiment E1   # one experiment
//	adaptivebench -list            # list experiment ids
//	adaptivebench -workers 4       # parallel fan-out across experiments
//
// The -soak mode runs the observed E10 soak as a long-lived process with the
// live observability endpoint attached, gating on RSS growth and result
// drift (see soak.go and `make soak`):
//
//	adaptivebench -soak -sessions 1000 -soak-iters 10 -listen 127.0.0.1:0 \
//	    -wait-tail 30s -trace-out SOAK_archive.trace
package main

import (
	"flag"
	"fmt"
	"os"
	"runtime"
	"strings"

	"adaptive/internal/experiment"
)

func main() {
	runners := experiment.All()
	ids := make([]string, len(runners))
	for i, r := range runners {
		ids[i] = r.ID
	}
	var (
		which   = flag.String("experiment", "all", "experiment id ("+strings.Join(ids, ", ")+") or 'all'")
		list    = flag.Bool("list", false, "list experiments and exit")
		workers = flag.Int("workers", runtime.NumCPU(), "parallel experiment workers for -experiment all")

		soak      = flag.Bool("soak", false, "run the observed E10 soak with the live endpoint (see soak.go)")
		sessions  = flag.Int("sessions", 1000, "with -soak: sessions per iteration")
		soakIters = flag.Int("soak-iters", 10, "with -soak: soak iterations")
		// The soak default ring is deliberately small: with the quarter-ring
		// flush watermark it streams chunks continuously throughout the run
		// (the operator-facing model) instead of in one burst at the end.
		buffer    = flag.Int("buffer", 1<<12, "with -soak: per-shard trace ring in records")
		sample    = flag.Uint64("sample", 64, "with -soak: keep every Nth high-rate trace event")
		listen    = flag.String("listen", "127.0.0.1:0", "with -soak: observability endpoint address ('' disables HTTP)")
		waitTail  = flag.Duration("wait-tail", 0, "with -soak: wait this long for a /trace tail to attach before traffic")
		traceOut  = flag.String("trace-out", "", "with -soak: write the streamed trace archive here")
		outPrefix = flag.String("out-prefix", "SOAK_", "with -soak: prefix for summary.json and metrics.json outputs")
		allowMB   = flag.Float64("allow-mb", 48, "with -soak: flat RSS growth allowance in MiB (archive growth is added)")
	)
	flag.Parse()

	if *soak {
		os.Exit(runSoak(soakConfig{
			sessions: *sessions, iters: *soakIters,
			buffer: *buffer, sample: *sample,
			listen: *listen, waitTail: *waitTail,
			traceOut: *traceOut, prefix: *outPrefix, allowMB: *allowMB,
		}))
	}

	if *list {
		for _, r := range runners {
			fmt.Printf("%-4s %s\n", r.ID, r.Name)
		}
		return
	}
	if strings.EqualFold(*which, "all") {
		for _, t := range experiment.RunAllParallel(*workers) {
			fmt.Println(t.Render())
		}
		return
	}
	for _, r := range runners {
		if strings.EqualFold(r.ID, *which) {
			for _, t := range r.Run() {
				fmt.Println(t.Render())
			}
			return
		}
	}
	fmt.Fprintf(os.Stderr, "unknown experiment %q (use -list)\n", *which)
	os.Exit(2)
}
