// Package unites implements the UNITES subsystem ("UNIform Transport
// Evaluation Subsystem", ADAPTIVE §4.3): metric specification, collection,
// analysis, and presentation.
//
// Metrics come in two classes, exactly as the paper divides them:
//
//   - Blackbox — observable without internal instrumentation: throughput,
//     end-to-end latency. Workload sinks compute these from delivered data.
//   - Whitebox — requiring instrumentation inside session configurations:
//     connection-establishment latency, (re)transmission counts, jitter,
//     loss, segue counts, timer activity. Mechanisms emit these through the
//     mechanism.MetricSink interface, which Recorder implements.
//
// A Repository aggregates per-session Recorders and answers systemwide,
// per-host, and per-connection queries (the paper's three presentation
// scopes).
package unites

import (
	"fmt"
	"math"
	"sort"
	"strings"
	"sync"
	"sync/atomic"
)

// Class distinguishes the paper's two metric classes.
type Class int

const (
	// Whitebox metrics require internal instrumentation.
	Whitebox Class = iota
	// Blackbox metrics are externally observable.
	Blackbox
)

// ClassOf reports the class of a metric name. Application-level delivery
// metrics (app.*, workload.*) are blackbox; everything emitted from inside
// the session configuration is whitebox.
func ClassOf(name string) Class {
	if strings.HasPrefix(name, "app.") || strings.HasPrefix(name, "workload.") {
		return Blackbox
	}
	return Whitebox
}

// Distribution accumulates samples as streaming moments plus the log-bucketed
// histogram every quantile is answered from. The zero value is ready to use.
type Distribution struct {
	Count      uint64
	Sum, SumSq float64
	Min, Max   float64
	// Invalid counts the non-finite samples offered (a ratio that divided by
	// zero). They are in none of the fields above and in no bucket: one NaN or
	// Inf in a sum would make every later mean, and the JSON export, useless.
	Invalid uint64
	hist    Histogram
}

// NewDistribution returns an empty distribution.
func NewDistribution() *Distribution { return &Distribution{} }

// Add folds in one sample.
func (d *Distribution) Add(v float64) {
	if math.IsNaN(v) || math.IsInf(v, 0) {
		d.Invalid++
		return
	}
	if d.Count == 0 || v < d.Min {
		d.Min = v
	}
	if d.Count == 0 || v > d.Max {
		d.Max = v
	}
	d.Count++
	d.Sum += v
	d.SumSq += v * v
	d.hist.Add(v)
}

// Mean returns the sample mean (0 when empty).
func (d *Distribution) Mean() float64 {
	if d.Count == 0 {
		return 0
	}
	return d.Sum / float64(d.Count)
}

// StdDev returns the population standard deviation.
func (d *Distribution) StdDev() float64 {
	if d.Count == 0 {
		return 0
	}
	m := d.Mean()
	v := d.SumSq/float64(d.Count) - m*m
	if v < 0 {
		v = 0
	}
	return math.Sqrt(v)
}

// Quantile returns the q-quantile (0<=q<=1): the histogram's answer clamped
// to the observed range, so a single-valued distribution reports its exact
// value and no quantile lies outside [Min, Max].
func (d *Distribution) Quantile(q float64) float64 {
	return math.Max(d.Min, math.Min(d.Max, d.hist.Quantile(q)))
}

// Hist returns the histogram behind Quantile (empty until the first sample):
// the exports read its buckets and their unclamped midpoints, which a consumer
// can recompute from the exported buckets alone.
func (d *Distribution) Hist() *Histogram { return &d.hist }

// Merge folds o's samples into d. Moments and histogram merge exactly.
func (d *Distribution) Merge(o *Distribution) {
	if o == nil {
		return
	}
	d.Invalid += o.Invalid
	d.mergeMoments(o.Count, o.Min, o.Max, o.Sum, o.SumSq)
	d.hist.Merge(&o.hist)
}

// mergeMoments folds in the moments of count more samples.
func (d *Distribution) mergeMoments(count uint64, min, max, sum, sumSq float64) {
	if count == 0 {
		return
	}
	if d.Count == 0 || min < d.Min {
		d.Min = min
	}
	if d.Count == 0 || max > d.Max {
		d.Max = max
	}
	d.Count += count
	d.Sum += sum
	d.SumSq += sumSq
}

// Cell is one counter of a Recorder. A session resolves each per-PDU counter
// to its cell once (Recorder.Cell) and bumps the cell from then on: the fast
// path hashes no name and takes no lock, and the instrumentation perturbs what
// it measures as little as it can (§4.3). The value is atomic because the
// snapshot plane reads it from another goroutine while the session counts.
type Cell struct{ v atomic.Uint64 }

// Add adds delta to the counter.
func (c *Cell) Add(delta uint64) { c.v.Add(delta) }

// Recorder collects metrics for one session (or one named scope). It
// implements mechanism.MetricSink.
type Recorder struct {
	mu       sync.Mutex
	Scope    string
	counters map[string]*Cell
	gauges   map[string]float64
	dists    map[string]*Distribution
}

// NewRecorder returns an empty recorder for the scope. Every session counts, so
// the counter map exists from the start; most never set a gauge and many never
// record a sample, so those maps are built by the first Gauge and Sample.
func NewRecorder(scope string) *Recorder {
	return &Recorder{Scope: scope, counters: make(map[string]*Cell)}
}

// Count adds delta to a counter: the by-name entry to the cell Cell returns,
// for events too rare to be worth holding a handle for.
func (r *Recorder) Count(name string, delta uint64) { r.Cell(name).Add(delta) }

// Cell returns the counter's cell, creating it on first use. A counter is
// listed by CounterNames and the exports from the moment its cell exists, so
// callers resolve a cell at the first increment, not ahead of it.
func (r *Recorder) Cell(name string) *Cell {
	r.mu.Lock()
	c := r.counters[name]
	if c == nil {
		c = new(Cell)
		r.counters[name] = c
	}
	r.mu.Unlock()
	return c
}

// Sample folds a value into a distribution.
func (r *Recorder) Sample(name string, v float64) {
	r.mu.Lock()
	d := r.dist(name)
	d.Add(v)
	r.mu.Unlock()
}

// dist returns the named distribution, creating it (and the map) on first use.
// The caller holds r.mu.
func (r *Recorder) dist(name string) *Distribution {
	d := r.dists[name]
	if d == nil {
		if r.dists == nil {
			r.dists = make(map[string]*Distribution)
		}
		d = NewDistribution()
		r.dists[name] = d
	}
	return d
}

// Gauge sets an instantaneous value.
func (r *Recorder) Gauge(name string, v float64) {
	r.mu.Lock()
	if r.gauges == nil {
		r.gauges = make(map[string]float64)
	}
	r.gauges[name] = v
	r.mu.Unlock()
}

// Counter reads a counter (0 when absent).
func (r *Recorder) Counter(name string) uint64 {
	r.mu.Lock()
	defer r.mu.Unlock()
	if c := r.counters[name]; c != nil {
		return c.v.Load()
	}
	return 0
}

// GaugeValue reads a gauge.
func (r *Recorder) GaugeValue(name string) float64 {
	r.mu.Lock()
	defer r.mu.Unlock()
	return r.gauges[name]
}

// Dist returns the distribution for name, or nil.
func (r *Recorder) Dist(name string) *Distribution {
	r.mu.Lock()
	defer r.mu.Unlock()
	return r.dists[name]
}

// CounterNames returns all counter names, sorted.
func (r *Recorder) CounterNames() []string {
	r.mu.Lock()
	defer r.mu.Unlock()
	out := make([]string, 0, len(r.counters))
	for k := range r.counters {
		out = append(out, k)
	}
	sort.Strings(out)
	return out
}

// Repository is the UNITES metric repository: it stores per-connection
// recorders (keyed by connection ID) grouped under host scopes and answers
// aggregate queries. Per-connection detail ends when the connection does:
// Retire folds its recorder into the host's retired recorder, so the aggregate
// scopes never lose a count while the repository's size follows the live
// connections.
type Repository struct {
	mu      sync.Mutex
	conns   map[uint32]*Recorder
	hosts   map[uint32]string    // connID -> host scope tag
	retired map[string]*Recorder // host scope tag -> the sum of its ended connections

	// A Snapshot looks at recorders one by one without holding mu (it must
	// not stall the event loop that opens and closes connections), so a
	// retirement that arrives while one is in progress waits in deferred and
	// is folded when the last of them ends.
	snapshots int
	deferred  []uint32
}

// NewRepository returns an empty repository.
func NewRepository() *Repository {
	return &Repository{
		conns:   make(map[uint32]*Recorder),
		hosts:   make(map[uint32]string),
		retired: make(map[string]*Recorder),
	}
}

// SinkFor returns (creating if needed) the recorder for a connection,
// tagging it with the host scope. It is the Stack's MetricFactory.
func (rp *Repository) SinkFor(host string) func(connID uint32) *Recorder {
	return func(connID uint32) *Recorder {
		rp.mu.Lock()
		defer rp.mu.Unlock()
		// Both ends of a connection share a connID but live on different
		// hosts; key per (host, connID).
		key := connID ^ hashScope(host)
		r, ok := rp.conns[key]
		if !ok {
			// Hand-rolled "%s/conn-%08x": this runs once per session and
			// Sprintf's boxing shows up at many-session scale.
			buf := make([]byte, 0, len(host)+14)
			buf = append(buf, host...)
			buf = append(buf, "/conn-"...)
			const hexdigits = "0123456789abcdef"
			for sh := 28; sh >= 0; sh -= 4 {
				buf = append(buf, hexdigits[(connID>>uint(sh))&0xf])
			}
			r = NewRecorder(string(buf))
			rp.conns[key] = r
			rp.hosts[key] = host
		}
		return r
	}
}

func hashScope(s string) uint32 {
	var h uint32 = 2166136261
	for i := 0; i < len(s); i++ {
		h ^= uint32(s[i])
		h *= 16777619
	}
	return h
}

// Retire ends a connection's recorder: its counters add into, and its
// distributions merge exactly into, the host's retired recorder (scope
// "<host>/retired", listed beside the live connections); its gauges, being
// instantaneous, go with it. The move happens under the repository lock and
// never while a Snapshot is looking, so no aggregate read sees the connection
// twice or not at all. Retiring an unknown or already-retired connection is
// a no-op.
func (rp *Repository) Retire(host string, connID uint32) {
	key := connID ^ hashScope(host)
	rp.mu.Lock()
	defer rp.mu.Unlock()
	if rp.conns[key] == nil || rp.hosts[key] != host {
		return
	}
	if rp.snapshots > 0 {
		rp.deferred = append(rp.deferred, key)
		return
	}
	rp.fold(key)
}

// fold moves the recorder under key into its host's retired recorder. The
// caller holds rp.mu.
func (rp *Repository) fold(key uint32) {
	r, host := rp.conns[key], rp.hosts[key]
	if r == nil {
		return // retired twice while deferred
	}
	delete(rp.conns, key)
	delete(rp.hosts, key)
	into := rp.retired[host]
	if into == nil {
		into = NewRecorder(host + "/retired")
		rp.retired[host] = into
	}
	r.mu.Lock()
	into.mu.Lock()
	for name, c := range r.counters {
		cell := into.counters[name]
		if cell == nil {
			cell = new(Cell)
			into.counters[name] = cell
		}
		cell.Add(c.v.Load())
	}
	for name, d := range r.dists {
		into.dist(name).Merge(d)
	}
	into.mu.Unlock()
	r.mu.Unlock()
}

// Recorders returns all recorders — live connections and each host's retired
// recorder — sorted by scope (stable output).
func (rp *Repository) Recorders() []*Recorder {
	rp.mu.Lock()
	defer rp.mu.Unlock()
	out := make([]*Recorder, 0, len(rp.conns)+len(rp.retired))
	for _, r := range rp.conns {
		out = append(out, r)
	}
	for _, r := range rp.retired {
		out = append(out, r)
	}
	sort.Slice(out, func(i, j int) bool { return out[i].Scope < out[j].Scope })
	return out
}

// TotalCounter sums a counter across every recorder (systemwide scope).
func (rp *Repository) TotalCounter(name string) uint64 {
	rp.mu.Lock()
	defer rp.mu.Unlock()
	var total uint64
	for _, r := range rp.conns {
		total += r.Counter(name)
	}
	for _, r := range rp.retired {
		total += r.Counter(name)
	}
	return total
}

// HostCounter sums a counter across one host's recorders (per-host scope).
func (rp *Repository) HostCounter(host, name string) uint64 {
	rp.mu.Lock()
	defer rp.mu.Unlock()
	var total uint64
	for key, r := range rp.conns {
		if rp.hosts[key] == host {
			total += r.Counter(name)
		}
	}
	if r := rp.retired[host]; r != nil {
		total += r.Counter(name)
	}
	return total
}

// Render prints a systemwide counter summary as an aligned text table, with
// each metric labeled by class.
func (rp *Repository) Render() string {
	names := map[string]bool{}
	for _, r := range rp.Recorders() {
		for _, n := range r.CounterNames() {
			names[n] = true
		}
	}
	sorted := make([]string, 0, len(names))
	for n := range names {
		sorted = append(sorted, n)
	}
	sort.Strings(sorted)
	var b strings.Builder
	fmt.Fprintf(&b, "%-32s %-9s %12s\n", "metric", "class", "total")
	for _, n := range sorted {
		cls := "whitebox"
		if ClassOf(n) == Blackbox {
			cls = "blackbox"
		}
		fmt.Fprintf(&b, "%-32s %-9s %12d\n", n, cls, rp.TotalCounter(n))
	}
	return b.String()
}
