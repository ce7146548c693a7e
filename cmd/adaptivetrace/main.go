// Command adaptivetrace records, inspects, converts, and compares flight
// recorder traces (internal/trace) of the reference experiments.
//
// Usage:
//
//	adaptivetrace -record e3 -o e3.trace            # flight-record a run
//	adaptivetrace -record e10 -sessions 1000 -o t   # the E10 soak
//	adaptivetrace -summary e3.trace                 # per-kind counts
//	adaptivetrace -chrome e3.json e3.trace          # chrome://tracing JSON
//	adaptivetrace -chrome e3.json -spans -kinds session.pdu.send,session.segue.commit e3.trace
//	adaptivetrace -diff a.trace b.trace             # exit 1 on divergence
//	adaptivetrace -tail http://host:port -o t       # record a live /trace stream
//
// Recording knobs: -buffer sets the per-shard ring capacity in records,
// -sample 2^k keeps every 2^k-th high-rate event (structural events are
// always kept), -perturb injects the E9 single-event disturbance used by the
// determinism regression tests.
package main

import (
	"flag"
	"fmt"
	"net/http"
	"os"
	"strconv"
	"strings"

	"adaptive/internal/experiment"
	"adaptive/internal/trace"
	"adaptive/internal/wire"
)

func main() {
	var (
		record   = flag.String("record", "", "flight-record an experiment: e3, e9, or e10")
		sessions = flag.Int("sessions", 1000, "total sessions for -record e10")
		perturb  = flag.Bool("perturb", false, "inject the single-event perturbation (-record e9 only)")
		buffer   = flag.Int("buffer", trace.DefaultBuffer, "ring capacity in records per shard (rounded up to a power of two)")
		sample   = flag.Uint64("sample", 1, "keep every Nth high-rate event (N a power of two; 1 = all)")
		out      = flag.String("o", "", "output path for -record (required)")
		chrome   = flag.String("chrome", "", "convert a trace to Chrome trace-event JSON at this path")
		spans    = flag.Bool("spans", false, "with -chrome: derive send->receive spans per (conn, seq)")
		kinds    = flag.String("kinds", "", "with -chrome: comma-separated event kinds to keep (default all)")
		conn     = flag.Uint("conn", 0, "with -chrome: keep session events for this connection id only")
		summary  = flag.Bool("summary", false, "print per-kind counts and shard retention for a trace")
		diff     = flag.Bool("diff", false, "compare two traces; exit 1 and print the first divergence")
		tail     = flag.String("tail", "", "attach to a live observability endpoint and record its /trace stream")
	)
	flag.Parse()

	switch {
	case *record != "":
		if *out == "" {
			fatal("-record requires -o <path>")
		}
		var set *trace.Set
		switch strings.ToLower(*record) {
		case "e3":
			set = experiment.TraceE3(*buffer, *sample)
		case "e9":
			set = experiment.TraceE9(*buffer, *sample, *perturb)
		case "e10":
			set = experiment.TraceE10(*sessions, *buffer, *sample, nil)
		default:
			fatal("unknown experiment %q (want e3, e9, or e10)", *record)
		}
		save(*out, set)
		fmt.Printf("recorded %s: %d shard(s), %d record(s) retained -> %s\n",
			strings.ToLower(*record), len(set.Shards), set.Len(), *out)

	case *chrome != "":
		set := load(oneArg("-chrome"))
		opt := trace.ChromeOptions{Spans: *spans, Conn: uint32(*conn), DataType: uint64(wire.TData)}
		if *kinds != "" {
			opt.Kinds = make(map[trace.Kind]bool)
			for _, name := range strings.Split(*kinds, ",") {
				k, ok := trace.KindByName(strings.TrimSpace(name))
				if !ok {
					fatal("unknown event kind %q (see -summary output for names)", name)
				}
				opt.Kinds[k] = true
			}
		}
		f, err := os.Create(*chrome)
		if err != nil {
			fatal("%v", err)
		}
		if err := set.WriteChrome(f, opt); err != nil {
			fatal("render %s: %v", *chrome, err)
		}
		if err := f.Close(); err != nil {
			fatal("close %s: %v", *chrome, err)
		}
		fmt.Printf("wrote chrome trace %s (load via chrome://tracing or ui.perfetto.dev)\n", *chrome)

	case *tail != "":
		if *out == "" {
			fatal("-tail requires -o <path>")
		}
		set := tailStream(*tail)
		save(*out, set)
		fmt.Printf("tailed %s: %d shard(s), %d record(s) -> %s\n",
			*tail, len(set.Shards), set.Len(), *out)

	case *summary:
		fmt.Print(load(oneArg("-summary")).Summarize())

	case *diff:
		if flag.NArg() != 2 {
			fatal("-diff takes exactly two trace files")
		}
		a, b := load(flag.Arg(0)), load(flag.Arg(1))
		if d, ok := trace.Diff(a, b); !ok {
			fmt.Printf("traces diverge: %s\n", d)
			os.Exit(1)
		}
		fmt.Printf("traces identical: %d shard(s), %d record(s)\n", len(a.Shards), a.Len())

	default:
		flag.Usage()
		os.Exit(2)
	}
}

// oneArg returns the single positional argument a mode requires.
func oneArg(mode string) string {
	if flag.NArg() != 1 {
		fatal("%s takes exactly one trace file, got %s", mode, strconv.Itoa(flag.NArg()))
	}
	return flag.Arg(0)
}

// tailStream subscribes to a live endpoint's /trace stream and reassembles
// it until the serving node finishes its trace (EOF). Gaps — a chunk lost to
// a slow subscriber buffer, or a prefix missed by attaching late — are fatal:
// a tail recording with holes would pass a size check but silently fail a
// record-level diff.
func tailStream(endpoint string) *trace.Set {
	url := strings.TrimSuffix(endpoint, "/") + "/trace"
	resp, err := http.Get(url)
	if err != nil {
		fatal("connect %s: %v", url, err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		fatal("%s: HTTP %d", url, resp.StatusCode)
	}
	set, err := trace.ReadSet(resp.Body)
	if err != nil {
		fatal("read stream: %v", err)
	}
	for _, sh := range set.Shards {
		if missed := sh.Total - uint64(len(sh.Records)); missed != 0 {
			fatal("shard %d stream starts at record %d, not 0 (attach before the run starts)", sh.Shard, missed)
		}
	}
	return set
}

func load(path string) *trace.Set {
	f, err := os.Open(path)
	if err != nil {
		fatal("%v", err)
	}
	defer f.Close()
	set, err := trace.ReadSet(f)
	if err != nil {
		fatal("read %s: %v", path, err)
	}
	return set
}

func save(path string, set *trace.Set) {
	f, err := os.Create(path)
	if err != nil {
		fatal("%v", err)
	}
	if _, err := set.WriteTo(f); err != nil {
		fatal("write %s: %v", path, err)
	}
	if err := f.Close(); err != nil {
		fatal("close %s: %v", path, err)
	}
}

func fatal(format string, args ...any) {
	fmt.Fprintf(os.Stderr, "adaptivetrace: "+format+"\n", args...)
	os.Exit(2)
}
