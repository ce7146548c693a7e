// Command bench is the repository's benchmark: four full-stack workloads
// (two over live UDP loopback sockets, two on the simulator), end-to-end
// metrics from untraced runs, and per-layer metrics from a traced run whose
// spans are recorded by shims in this directory around the program's public
// seams. See README.md for the glossary and BENCHMARK.json for the contract.
//
//	go run . -all -seed 12                 every workload, untraced, all end-to-end metrics
//	go run . -all -seed 12 -trace -out d   ... then traced: per-layer metrics, span files, ledger
//	go run . -layers                       the isolated layer rungs on a synthetic mix
//	go run . --workload live_rr --seed 3 --seconds 20 --trace 0   one driver run
package main

import (
	"bytes"
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"runtime"
	"runtime/debug"
	"sort"
	"strings"
	"time"

	"adaptive/bench/tap"
)

const (
	// setupRepeats: set-up is timed this many times per run and setup_s is
	// the median, so one slow socket bind or page fault cannot move it. (The
	// simulator workloads add the set-up of every further pass.)
	setupRepeats = 5
	// untracedShare of a traced run's seconds goes to the untraced rig that
	// anchors trace.overhead_share.
	untracedShare = 0.4
	rungBudget    = 60 * time.Millisecond
	// fullScale is the declared workload size. Every run the command line
	// can start is at full scale; only selftest_test.go shrinks a workload.
	fullScale = 1.0
	detScale  = 1.0 / 50 // the same-seed rerun of the sim workloads
	// rawSpans is how many spans of the measurement window the span file
	// keeps verbatim.
	rawSpans = 2000
	// simSampleTrees: the sim workloads record one span tree in four. At
	// ~70 ns a span and three spans a packet, recording all of them costs a
	// fifth of sim_soak's packet rate.
	simSampleTrees = 4
)

type metricValue struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// driverLine is the last line of standard output: the contract with the
// benchmark driver.
type driverLine struct {
	Correct   bool                   `json:"correct"`
	Attempted uint64                 `json:"attempted"`
	Failed    uint64                 `json:"failed"`
	Metrics   map[string]metricValue `json:"metrics"`
}

type timingReport struct {
	N     int     `json:"samples"`
	P50   float64 `json:"p50"`
	TailQ float64 `json:"tail_quantile"`
	Tail  float64 `json:"tail"`
	Unit  string  `json:"unit"`
}

func (t timing) report(unit string) timingReport {
	return timingReport{N: t.N, P50: t.P50, TailQ: t.TailQ, Tail: t.Tail, Unit: unit}
}

type spanSummary struct {
	Name  string `json:"name"`
	Count uint64 `json:"count"`
	N     uint64 `json:"carried"`
	Total int64  `json:"total_ns"`
	Self  int64  `json:"self_ns"`
	P50   int64  `json:"p50_ns"`
	P99   int64  `json:"p99_ns"`
}

// result is one result file.
type result struct {
	Env      environment             `json:"environment"`
	Workload string                  `json:"workload"`
	Why      string                  `json:"why"`
	Seconds  float64                 `json:"seconds"`
	Scale    float64                 `json:"scale"`
	Traced   bool                    `json:"traced"`
	Problems []string                `json:"problems"`
	Driver   driverLine              `json:"result"`
	Timings  map[string]timingReport `json:"timings"`
	Extra    map[string]float64      `json:"extra,omitempty"`
	Rungs    []rungResult            `json:"rungs,omitempty"`
	Ledger   []ledgerRow             `json:"ledger,omitempty"`
	Spans    []spanSummary           `json:"span_aggregates,omitempty"`
}

func main() {
	var (
		name    = flag.String("workload", "", "run one workload: live_bulk, live_rr, sim_soak or sim_lossy")
		seed    = flag.Int64("seed", 12, "workload seed: payloads, size mixes and fault schedules derive from it")
		seconds = flag.Float64("seconds", 20, "wall seconds each run measures")
		trace   = flag.String("trace", "", "0 = untraced end-to-end run, 1 (or bare -trace with -all) = traced per-layer run")
		all     = flag.Bool("all", false, "run every workload")
		layers  = flag.Bool("layers", false, "run the isolated layer rungs on a synthetic frame mix")
		out     = flag.String("out", "", "directory for result and span files (default: none)")
	)
	// -trace is a value flag for the driver (--trace 0|1) and a switch for
	// people (-all -trace); accept the bare form too.
	args := os.Args[1:]
	for i, a := range args {
		if (a == "-trace" || a == "--trace") && (i+1 == len(args) || strings.HasPrefix(args[i+1], "-")) {
			args[i] = "-trace=1"
		}
	}
	if err := flag.CommandLine.Parse(args); err != nil {
		os.Exit(2)
	}
	if err := prepareProcess(); err != nil {
		fmt.Fprintln(os.Stderr, err)
		os.Exit(2)
	}
	traced := *trace == "1" || *trace == "true"

	switch {
	case *layers:
		printRungs(runRungs(newMix(nil), rungBudget))
	case *all:
		ok := true
		for i := range workloads {
			w := &workloads[i]
			res, err := runOne(w, *seed, *seconds, fullScale, false, *out)
			ok = ok && err == nil && res.Driver.Correct
			if traced {
				res, err = runOne(w, *seed, *seconds, fullScale, true, *out)
				ok = ok && err == nil && res.Driver.Correct
			}
		}
		if !ok {
			os.Exit(1)
		}
	case *name != "":
		w := workloadByName(*name)
		if w == nil {
			fmt.Fprintf(os.Stderr, "bench: unknown workload %q\n", *name)
			os.Exit(2)
		}
		res, err := runOne(w, *seed, *seconds, fullScale, traced, *out)
		if err != nil {
			os.Exit(1)
		}
		line, _ := json.Marshal(res.Driver)
		fmt.Println(string(line))
	default:
		flag.Usage()
		os.Exit(2)
	}
}

// runOne runs one workload once, prints its report, and writes its files.
func runOne(w *workloadDef, seed int64, seconds, scale float64, traced bool, out string) (*result, error) {
	res := &result{Env: currentEnvironment(seed), Workload: w.name, Why: w.why,
		Seconds: seconds, Scale: scale, Traced: traced, Timings: map[string]timingReport{}}
	var err error
	var rec *tap.Recorder
	if traced {
		rec, err = runTraced(w, seed, seconds, scale, res)
	} else {
		err = runUntraced(w, seed, seconds, scale, res)
	}
	if err != nil {
		fmt.Fprintf(os.Stderr, "bench: %s: %v\n", w.name, err)
		return res, err
	}
	printResult(res)
	if out != "" {
		if err := writeFiles(out, res, rec); err != nil {
			fmt.Fprintf(os.Stderr, "bench: %s: %v\n", w.name, err)
			return res, err
		}
	}
	return res, nil
}

func duration(seconds float64) time.Duration { return time.Duration(seconds * float64(time.Second)) }

// runUntraced is the end-to-end run: no tap anywhere.
func runUntraced(w *workloadDef, seed int64, seconds, scale float64, res *result) error {
	var setups []float64
	var r rig
	for i := 0; i < setupRepeats; i++ {
		t0 := time.Now()
		var err error
		if r, err = w.setup(seed, nil, scale); err != nil {
			return err
		}
		setups = append(setups, time.Since(t0).Seconds())
		if i < setupRepeats-1 {
			r.close()
		}
	}
	debug.FreeOSMemory() // the discarded rigs must not count in peak_rss_mb
	m, err := r.measure(duration(seconds))
	r.close()
	if err != nil {
		return err
	}
	if strings.HasPrefix(w.name, "sim_") {
		if err := sameSeedRerun(w, seed, scale, m); err != nil {
			return err
		}
	}
	res.Timings["lat_us"] = newTiming(m.latUs).report("us")
	values := map[string]float64{
		"setup_s":      median(append(setups, m.setupsS...)),
		"goodput_mbps": m.goodputMbps,
		"peak_rss_mb":  m.peakRSSMiB,
		"lat_p50_us":   m.latP50Us,
		"lat_p99_us":   m.latP99Us,
	}
	// The ungated wall-clock companions are per-layer metrics (the driver
	// reads them from the traced run's untraced rig); a person running -all
	// sees them here, from the full-length window.
	res.Extra = m.counters
	for k, v := range m.wallCompanions() {
		res.Extra[k] = v
	}
	res.Extra["driver.blocked_waits"] = float64(m.blockedWaits)
	res.Extra["driver.top_ups"] = float64(m.topUps)
	finish(res, m, endToEnd, values)
	return nil
}

// sameSeedRerun runs the workload twice more at 1/50 scale with the same
// seed: delivered packets, kernel events and the virtual-time metrics must
// be identical, or the simulation is not the deterministic instrument the
// virtual metrics rely on.
func sameSeedRerun(w *workloadDef, seed int64, scale float64, m *measurement) error {
	var prints [2]string
	for i := range prints {
		r, err := w.setup(seed, nil, scale*detScale)
		if err != nil {
			return err
		}
		mm, err := r.measure(0)
		r.close()
		if err != nil {
			return err
		}
		prints[i] = fmt.Sprintf("pkts=%v events=%v goodput=%v p50=%v p99=%v n=%d",
			mm.counters["sim.virtual_pkts"], mm.counters["sim.virtual_events"],
			mm.goodputMbps, mm.latP50Us, mm.latP99Us, len(mm.latUs))
	}
	if prints[0] != prints[1] {
		m.fail(1, "%s: same-seed reruns differ: %s vs %s", w.name, prints[0], prints[1])
	}
	return nil
}

// runTraced is the per-layer run: a short untraced rig for the overhead
// baseline, the traced rig, then the layer rungs on the frame mix it logged.
func runTraced(w *workloadDef, seed int64, seconds, scale float64, res *result) (*tap.Recorder, error) {
	ru, err := w.setup(seed, nil, scale)
	if err != nil {
		return nil, err
	}
	mu, err := ru.measure(duration(seconds * untracedShare))
	ru.close()
	if err != nil {
		return nil, err
	}
	runtime.GC()

	live := strings.HasPrefix(w.name, "live_")
	opts := tap.Options{RawSpans: rawSpans, Frames: 1 << 16, Transit: live}
	if !live {
		opts.SampleTrees = simSampleTrees
	}
	rec := tap.NewRecorder(opts)
	rt, err := w.setup(seed, rec, scale)
	if err != nil {
		return nil, err
	}
	mt, err := rt.measure(duration(seconds * (1 - untracedShare)))
	rt.close()
	if err != nil {
		return nil, err
	}
	if rec.Malformed() > 0 || rec.OpenSpans() != 0 {
		mt.fail(1, "%s: tap recorded %d malformed spans, %d left open", w.name, rec.Malformed(), rec.OpenSpans())
	}
	budget := rungBudget
	if scale < 1 {
		budget = time.Duration(float64(budget) * scale) // the self-test only needs the rungs to run
	}
	rungs := runRungs(newMix(rec.Frames()), budget)
	// The traced rig's timers all cross Clock.AfterFunc (the tap hides the
	// simulator's allocation-free fast path), so allocation and GC figures
	// that describe the program come from the untraced rig.
	for _, k := range []string{"runtime.allocs_per_pkt", "runtime.bytes_per_pkt", "runtime.gc_cpu_share"} {
		mt.counters[k] = mu.counters[k]
	}
	values, rows := layerMetrics(w, mt, mu, rungs)

	for _, n := range sortedKeys(rungs) {
		res.Rungs = append(res.Rungs, rungs[n])
		if e := rungs[n].Err; e != "" {
			mt.fail(1, "rung %s: %s", n, e)
		}
	}
	res.Ledger = rows
	for _, n := range tap.Names() {
		a := &mt.trace.aggs.By[n]
		res.Spans = append(res.Spans, spanSummary{Name: n.String(), Count: a.Count, N: a.N,
			Total: a.Total, Self: a.Self, P50: a.Quantile(0.5), P99: a.Quantile(0.99)})
	}
	res.Timings["lat_us"] = newTiming(mt.latUs).report("us")
	if live {
		res.Timings["udpnet.transit_us"] = newTiming(mt.trace.transitsUs).report("us")
	}
	res.Extra = map[string]float64{
		"pkts_per_s_best.untraced": mu.pktsPerSec(bestRate),
		"pkts_per_s_best.traced":   mt.pktsPerSec(bestRate),
		"transit.unmatched":        float64(mt.trace.unmatched),
	}
	finish(res, mt, perLayer, values)
	return rec, nil
}

// finish fills the driver line from the declared metric list.
func finish(res *result, m *measurement, decl []metricDecl, values map[string]float64) {
	res.Problems = m.problems
	res.Driver = driverLine{Correct: m.failed == 0 && len(m.problems) == 0, Attempted: m.attempted,
		Failed: m.failed, Metrics: make(map[string]metricValue, len(decl))}
	if res.Driver.Attempted == 0 {
		res.Driver.Attempted = 1
		res.Driver.Correct = false
		res.Problems = append(res.Problems, "no operation was attempted")
	}
	for _, d := range decl {
		res.Driver.Metrics[d.name] = metricValue{Value: values[d.name], Unit: d.unit}
	}
}

func sortedKeys[V any](m map[string]V) []string {
	keys := make([]string, 0, len(m))
	for k := range m {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	return keys
}

func printResult(res *result) {
	mode := "untraced: end-to-end metrics"
	if res.Traced {
		mode = "traced: per-layer metrics"
	}
	fmt.Printf("== %s (%s) seed=%d seconds=%g scale=%g ==\n", res.Workload, mode, res.Env.Seed, res.Seconds, res.Scale)
	fmt.Printf("   %s\n", res.Why)
	fmt.Printf("   %s; GOMAXPROCS=%d of %d; %s; commit %s\n", res.Env.GoVersion, res.Env.GOMAXPROCS,
		res.Env.NumCPU, res.Env.CPUModel, res.Env.Commit)
	fmt.Printf("   %s\n", res.Env.Network)
	decl := endToEnd
	if res.Traced {
		decl = perLayer
	}
	for _, d := range decl {
		v := res.Driver.Metrics[d.name]
		fmt.Printf("%-36s %16.4f %-7s (%s is better)\n", d.name, v.Value, v.Unit, d.better)
	}
	for _, k := range sortedKeys(res.Timings) {
		t := res.Timings[k]
		if t.TailQ > 0 {
			fmt.Printf("timing %-29s p50 %.1f %s, p%g %.1f %s, %d samples\n", k, t.P50, t.Unit, t.TailQ*100, t.Tail, t.Unit, t.N)
		} else {
			fmt.Printf("timing %-29s p50 %.1f %s, %d samples (too few for a tail)\n", k, t.P50, t.Unit, t.N)
		}
	}
	for _, s := range res.Spans {
		if s.Count > 0 {
			fmt.Printf("span   %-16s count %10d self %8.1f ns/span, p50 %d ns, p99 %d ns\n", s.Name, s.Count,
				float64(s.Self)/float64(s.Count), s.P50, s.P99)
		}
	}
	for _, r := range res.Ledger {
		fmt.Printf("ledger %-36s %9.1f ns x %12.0f ops = %5.1f %% of CPU\n", r.Rung, r.Ns, r.Ops, r.Share*100)
	}
	for _, k := range sortedKeys(res.Extra) {
		fmt.Printf("extra  %-36s %16.4f\n", k, res.Extra[k])
	}
	fmt.Printf("operations: %d attempted, %d failed; correct=%v\n", res.Driver.Attempted, res.Driver.Failed, res.Driver.Correct)
	for _, p := range res.Problems {
		fmt.Printf("PROBLEM: %s\n", p)
	}
}

func printRungs(rungs map[string]rungResult) {
	for _, n := range sortedKeys(rungs) {
		r := rungs[n]
		fmt.Printf("%-36s %10.1f ns/op %7.3f allocs/op %9d ops %s\n", n, r.Ns, r.Allocs, r.Ops, r.Err)
	}
}

// writeFiles writes <workload>[.traced].json and, for a traced run, the span
// file <workload>.spans.json.
func writeFiles(dir string, res *result, rec *tap.Recorder) error {
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return err
	}
	name := res.Workload + ".json"
	if res.Traced {
		name = res.Workload + ".traced.json"
	}
	if err := writeJSON(filepath.Join(dir, name), res); err != nil {
		return err
	}
	if rec == nil {
		return nil
	}
	return writeSpans(filepath.Join(dir, res.Workload+".spans.json"), res, rec.Spans())
}

// writeSpans writes the span file: a one-line header object whose "spans"
// array holds one span per line.
func writeSpans(path string, res *result, spans []tap.Span) error {
	head, err := json.Marshal(struct {
		Env        environment   `json:"environment"`
		Workload   string        `json:"workload"`
		Note       string        `json:"note"`
		Aggregates []spanSummary `json:"span_aggregates"`
	}{res.Env, res.Workload,
		"spans holds the first recorded spans of the measurement window, in end order (a parent that ended after the last kept span is absent); span_aggregates covers every span of the window",
		res.Spans})
	if err != nil {
		return err
	}
	var b bytes.Buffer
	b.Write(head[:len(head)-1])
	b.WriteString(`,"spans":[`)
	for i, sp := range spans {
		line, err := json.Marshal(sp)
		if err != nil {
			return err
		}
		if i > 0 {
			b.WriteByte(',')
		}
		b.WriteByte('\n')
		b.Write(line)
	}
	b.WriteString("\n]}\n")
	return os.WriteFile(path, b.Bytes(), 0o644)
}

func writeJSON(path string, v any) error {
	b, err := json.MarshalIndent(v, "", " ")
	if err != nil {
		return err
	}
	return os.WriteFile(path, append(b, '\n'), 0o644)
}
