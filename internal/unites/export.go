package unites

import (
	"encoding/json"
	"sort"
	"strings"
)

// Export structures — the programmatic analog of the paper's SNMP/CMIP
// access to the metric repository (§4.3): machine-readable snapshots at
// systemwide, per-host, and per-connection scope.

// DistSnapshot summarizes a distribution. The quantile fields (p50..p999)
// are bucket midpoints of the log-bucketed histogram (bounded relative error,
// exact under cross-shard merge); hist lists its non-empty buckets so
// consumers can recompute arbitrary quantiles or re-merge snapshots. invalid
// appears only when non-finite samples were offered.
type DistSnapshot struct {
	Count   uint64       `json:"count"`
	Mean    float64      `json:"mean"`
	StdDev  float64      `json:"stddev"`
	Min     float64      `json:"min"`
	Max     float64      `json:"max"`
	P50     float64      `json:"p50"`
	P90     float64      `json:"p90"`
	P95     float64      `json:"p95"`
	P99     float64      `json:"p99"`
	P999    float64      `json:"p999"`
	Hist    []HistBucket `json:"hist,omitempty"`
	Invalid uint64       `json:"invalid,omitempty"`
}

// Restore reconstructs a Distribution from the snapshot. Moments are
// recovered exactly from Count/Mean/StdDev and the histogram is rebuilt
// bucket-for-bucket, so a restored distribution reports the same quantiles as
// the live one it was captured from and merges exactly with other
// distributions.
func (ds DistSnapshot) Restore() *Distribution {
	d := NewDistribution()
	ds.MergeSnapshot(d)
	return d
}

// MergeSnapshot folds the snapshot into d in place — a /metrics render folds
// thousands of connection snapshots into a handful of aggregates. The result
// is identical to d.Merge(ds.Restore()).
func (ds DistSnapshot) MergeSnapshot(d *Distribution) {
	d.Invalid += ds.Invalid
	n := float64(ds.Count)
	d.mergeMoments(ds.Count, ds.Min, ds.Max, ds.Mean*n, (ds.StdDev*ds.StdDev+ds.Mean*ds.Mean)*n)
	d.hist.AddBuckets(ds.Hist)
}

// RecorderSnapshot is one scope's metrics.
type RecorderSnapshot struct {
	Scope    string                  `json:"scope"`
	Counters map[string]uint64       `json:"counters,omitempty"`
	Gauges   map[string]float64      `json:"gauges,omitempty"`
	Dists    map[string]DistSnapshot `json:"distributions,omitempty"`
}

// Snapshot is a full repository export.
type Snapshot struct {
	Connections []RecorderSnapshot `json:"connections"`
	Hosts       []RecorderSnapshot `json:"hosts"`      // per-host counter sums
	Systemwide  map[string]uint64  `json:"systemwide"` // counter totals
}

// snapshotOf captures one recorder.
func snapshotOf(r *Recorder) RecorderSnapshot {
	r.mu.Lock()
	defer r.mu.Unlock()
	out := RecorderSnapshot{Scope: r.Scope}
	if len(r.counters) > 0 {
		out.Counters = make(map[string]uint64, len(r.counters))
		for k, c := range r.counters {
			out.Counters[k] = c.v.Load()
		}
	}
	if len(r.gauges) > 0 {
		out.Gauges = make(map[string]float64, len(r.gauges))
		for k, v := range r.gauges {
			out.Gauges[k] = v
		}
	}
	if len(r.dists) > 0 {
		out.Dists = make(map[string]DistSnapshot, len(r.dists))
		for k, d := range r.dists {
			snap := DistSnapshot{
				Count: d.Count, Mean: d.Mean(), StdDev: d.StdDev(),
				Min: d.Min, Max: d.Max, Invalid: d.Invalid,
			}
			// One bucket pass for all five quantiles: snapshots are taken at
			// scrape rate over thousands of connections.
			var qv [5]float64
			d.hist.Quantiles([]float64{0.5, 0.9, 0.95, 0.99, 0.999}, qv[:])
			snap.P50, snap.P90, snap.P95, snap.P99, snap.P999 =
				qv[0], qv[1], qv[2], qv[3], qv[4]
			snap.Hist = d.hist.Buckets()
			out.Dists[k] = snap
		}
	}
	return out
}

// Snapshot exports the repository at all three presentation scopes.
func (rp *Repository) Snapshot() Snapshot {
	rp.mu.Lock()
	rp.snapshots++ // retirements wait until the capture below is over
	rp.mu.Unlock()
	recs := rp.Recorders()
	defer func() {
		rp.mu.Lock()
		if rp.snapshots--; rp.snapshots == 0 {
			for _, key := range rp.deferred {
				rp.fold(key)
			}
			rp.deferred = rp.deferred[:0]
		}
		rp.mu.Unlock()
	}()
	snap := Snapshot{Systemwide: make(map[string]uint64)}
	hostTotals := map[string]map[string]uint64{}
	for _, r := range recs {
		rs := snapshotOf(r)
		snap.Connections = append(snap.Connections, rs)
		host := rs.Scope
		if i := strings.IndexByte(host, '/'); i >= 0 {
			host = host[:i]
		}
		ht, ok := hostTotals[host]
		if !ok {
			ht = map[string]uint64{}
			hostTotals[host] = ht
		}
		for k, v := range rs.Counters {
			ht[k] += v
			snap.Systemwide[k] += v
		}
	}
	hosts := make([]string, 0, len(hostTotals))
	for h := range hostTotals {
		hosts = append(hosts, h)
	}
	sort.Strings(hosts)
	for _, h := range hosts {
		snap.Hosts = append(snap.Hosts, RecorderSnapshot{Scope: h, Counters: hostTotals[h]})
	}
	return snap
}

// JSON renders the snapshot (indented, stable ordering via encoding/json's
// sorted map keys).
func (rp *Repository) JSON() ([]byte, error) {
	return json.MarshalIndent(rp.Snapshot(), "", "  ")
}

// FilteredSink wraps a MetricSink, passing through only the metrics the
// application's Transport Measurement Component requested (TKO "selectively
// instruments the synthesized configurations", §4.3). An empty allow list
// passes everything. Prefix entries ending in '.' match whole families
// ("rel." allows every reliability metric).
type FilteredSink struct {
	Next interface {
		Count(string, uint64)
		Sample(string, float64)
		Gauge(string, float64)
	}
	Allow []string

	Suppressed uint64
}

func (f *FilteredSink) allowed(name string) bool {
	if len(f.Allow) == 0 {
		return true
	}
	for _, a := range f.Allow {
		if name == a || (strings.HasSuffix(a, ".") && strings.HasPrefix(name, a)) {
			return true
		}
	}
	f.Suppressed++
	return false
}

// Count forwards an allowed counter update.
func (f *FilteredSink) Count(name string, d uint64) {
	if f.allowed(name) {
		f.Next.Count(name, d)
	}
}

// Sample forwards an allowed sample.
func (f *FilteredSink) Sample(name string, v float64) {
	if f.allowed(name) {
		f.Next.Sample(name, v)
	}
}

// Gauge forwards an allowed gauge update.
func (f *FilteredSink) Gauge(name string, v float64) {
	if f.allowed(name) {
		f.Next.Gauge(name, v)
	}
}
