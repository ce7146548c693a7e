package main

import (
	"fmt"
	"sort"
	"time"

	"adaptive/bench/tap"
)

// A workloadDef builds rigs; a rig is one established, warmed-up instance of
// the system under one provider, ready to be measured.
type workloadDef struct {
	name string
	why  string
	// setup builds the rig, establishes its connections and runs the
	// warm-up. rec is nil for an untraced rig. scale shrinks the workload
	// (1 = the declared size; the self-test runs at ~1/100).
	setup func(seed int64, rec *tap.Recorder, scale float64) (rig, error)
}

type rig interface {
	// measure drives the workload for about d of wall time and checks its
	// outputs.
	measure(d time.Duration) (*measurement, error)
	// close tears the rig down and waits for its goroutines.
	close()
}

// slice is one sub-interval of the timed window (500 ms over udpnet, 100 ms
// on the simulator). The wall-clock figures are medians over slices, so one
// host stall or one GC cycle moves one slice, not the figure; the best decile
// (the 90th percentile of a rate, the 10th of a cost: what the program does
// while the host leaves it alone) is printed beside each as a companion.
type slice struct {
	wall, cpu     time.Duration
	pkts, payload uint64
}

// measurement is what one rig hands back.
type measurement struct {
	slices []slice
	// goodputMbps and the latencies are in the provider's clock: wall time
	// over udpnet, virtual time over netsim. latUs holds every sample (for
	// the timing line); latP50Us/latP99Us are the gated figures.
	goodputMbps        float64
	latUs              []float64
	latP50Us, latP99Us float64
	// peakRSSMiB is the largest resident set seen at a slice boundary of
	// the measured window (for a sim rig: of its fixed span, so the figure
	// does not depend on how many more passes the run had time for).
	peakRSSMiB float64
	// setupsS times every further set-up the measurement needed (a sim rig's
	// fresh rigs); they join the run's own in setup_s.
	setupsS []float64
	// attempted/failed count application operations (messages, requests,
	// dials); problems names every output check that failed.
	attempted, failed uint64
	problems          []string
	// counters holds the per-layer counter metrics (source C) and the
	// workload's own ungated figures, by metric name.
	counters map[string]float64
	// trace is set by a traced rig: what the tap saw in the window the
	// counters cover.
	trace *traceWindow
	// driver reports the benchmark driver's own behaviour.
	blockedWaits, topUps uint64
}

// traceWindow is the tap's view of one measurement window.
type traceWindow struct {
	aggs       *tap.Aggs
	byType     [16]tap.FrameStats
	transitsUs []float64
	unmatched  uint64
	wall, cpu  time.Duration
	pkts       uint64 // frames received
	// dataByRung counts delivered data PDUs by the session-ladder rung that
	// matches the session they travelled on (the ledger's operation counts).
	dataByRung map[string]float64
	msgs       uint64 // application messages sent (workload.tick denominator)
}

// traceMark opens a trace window: call with no span open.
type traceMark struct {
	rec  *tap.Recorder
	base *tap.Aggs
	t0   time.Time
	cpu0 time.Duration
}

func markTrace(rec *tap.Recorder) *traceMark {
	if rec == nil {
		return nil
	}
	rec.ResetWindow()
	cpu, _ := cpuNow()
	return &traceMark{rec: rec, base: rec.Aggs(), t0: time.Now(), cpu0: cpu}
}

// close ends the window (again with no span open).
func (k *traceMark) close(pkts uint64) *traceWindow {
	if k == nil {
		return nil
	}
	cpu, _ := cpuNow()
	w := &traceWindow{aggs: k.rec.Aggs().Since(k.base).Estimate(), wall: time.Since(k.t0), cpu: cpu - k.cpu0, pkts: pkts}
	w.byType = k.rec.FrameStats()
	ns, unmatched := k.rec.Transits()
	w.unmatched = unmatched
	w.transitsUs = make([]float64, len(ns))
	for i, v := range ns {
		w.transitsUs[i] = float64(v) / 1e3
	}
	return w
}

func (m *measurement) fail(n uint64, format string, args ...any) {
	m.failed += n
	m.problems = append(m.problems, fmt.Sprintf(format, args...))
}

// overSlices returns the q-quantile over slices of f (slices where f is not
// positive are skipped).
func (m *measurement) overSlices(q float64, f func(s slice) float64) float64 {
	v := make([]float64, 0, len(m.slices))
	for _, s := range m.slices {
		if x := f(s); x > 0 {
			v = append(v, x)
		}
	}
	sort.Float64s(v)
	return quantile(v, q)
}

// Quantiles over slices: the reported figure is the median; the companion is
// the best decile.
const (
	mid      = 0.5
	bestRate = 0.9
	bestCost = 0.1
)

func (m *measurement) pktsPerSec(q float64) float64 {
	return m.overSlices(q, func(s slice) float64 { return float64(s.pkts) / s.wall.Seconds() })
}

func (m *measurement) cpuNsPerPkt(q float64) float64 {
	return m.overSlices(q, func(s slice) float64 { return ratio(float64(s.cpu.Nanoseconds()), float64(s.pkts)) })
}

// wallGoodputMbps is the live workloads' goodput: payload per wall second,
// median over slices.
func (m *measurement) wallGoodputMbps() float64 {
	return m.overSlices(mid, func(s slice) float64 { return float64(s.payload) * 8 / s.wall.Seconds() / 1e6 })
}

// wallCompanions are the wall-clock figures that are reported but not gated
// (BENCHMARK.json lists them per-layer): on the shared two-vCPU machines this
// runs on, the same code's packet rate and CPU cost spread anywhere from 2 %
// to 30 % between runs, depending on the hour, which no bound the driver
// accepts can hold (bench/README.md has the figures).
func (m *measurement) wallCompanions() map[string]float64 {
	return map[string]float64{
		"pkts_per_s":          m.pktsPerSec(mid),
		"pkts_per_s_best":     m.pktsPerSec(bestRate),
		"cpu_ns_per_pkt":      m.cpuNsPerPkt(mid),
		"cpu_ns_per_pkt_best": m.cpuNsPerPkt(bestCost),
		"lat_p99_all_us":      m.latP99AllUs(),
	}
}

// latP99AllUs is the 99th percentile over every latency sample of the
// window, host stalls included (the gated lat_p99_us of a live workload is
// windowed, see liveLatency; on the simulator the two are the same number).
func (m *measurement) latP99AllUs() float64 {
	s := append([]float64(nil), m.latUs...)
	sort.Float64s(s)
	return quantile(s, 0.99)
}

// latencyWindow is how many consecutive samples share one window of
// liveLatency: enough for a 99th percentile (four samples beyond it).
const latencyWindow = 400

// liveLatency sets the gated latency figures of a live workload. lat_p50_us
// is the median of every sample. lat_p99_us is the median, over windows of
// latencyWindow consecutive samples, of each window's 99th percentile: a host
// stall lands in one window, a tail the protocol produces lands in all of
// them. A tail that shows in fewer than half the windows is not in it;
// lat_p99_all_us (ungated) is the plain percentile over all samples.
func (m *measurement) liveLatency() {
	m.latP50Us = median(m.latUs)
	var p99s []float64
	for lo := 0; lo < len(m.latUs); lo += latencyWindow {
		hi := lo + latencyWindow
		if hi > len(m.latUs) {
			if lo > 0 {
				break // a short last window would only add noise
			}
			hi = len(m.latUs)
		}
		w := append([]float64(nil), m.latUs[lo:hi]...)
		sort.Float64s(w)
		p99s = append(p99s, quantile(w, 0.99))
	}
	m.latP99Us = median(p99s)
}

// slicer cuts the timed window into slices from monotone totals.
type slicer struct {
	t0            time.Time
	cpu0          time.Duration
	pkts0, bytes0 uint64
	out           []slice
	peakRSS       float64 // largest resident set at any cut so far, MiB
}

func newSlicer(pkts, payload uint64) *slicer {
	cpu, _ := cpuNow()
	return &slicer{t0: time.Now(), cpu0: cpu, pkts0: pkts, bytes0: payload}
}

// cut closes the current slice at the given running totals.
func (s *slicer) cut(pkts, payload uint64) {
	now := time.Now()
	cpu, maxRSS := cpuNow()
	s.out = append(s.out, slice{wall: now.Sub(s.t0), cpu: cpu - s.cpu0,
		pkts: pkts - s.pkts0, payload: payload - s.bytes0})
	s.t0, s.cpu0, s.pkts0, s.bytes0 = now, cpu, pkts, payload
	rss := rssNow()
	if rss == 0 {
		rss = maxRSS // no /proc: the lifetime high-water mark is the best there is
	}
	if rss > s.peakRSS {
		s.peakRSS = rss
	}
}

// age is how long the current slice has been open.
func (s *slicer) age() time.Duration { return time.Since(s.t0) }

// resume restarts the current slice after a pause the slices must not
// include.
func (s *slicer) resume(pkts, payload uint64) {
	cpu, _ := cpuNow()
	s.t0, s.cpu0, s.pkts0, s.bytes0 = time.Now(), cpu, pkts, payload
}

// finish closes the last, partial slice if it is at least half of full long,
// or if the window was too short to hold a full one.
func (s *slicer) finish(full time.Duration, pkts, payload uint64) {
	if el := time.Since(s.t0); len(s.out) == 0 || el >= full/2 {
		s.cut(pkts, payload)
	}
}

// span runs fn inside a span when the rig is traced.
func span(rec *tap.Recorder, name tap.Name, conn uint32, fn func()) {
	if rec == nil {
		fn()
		return
	}
	rec.Begin(name, conn)
	fn()
	rec.End(1)
}
