package obsv

import (
	"encoding/json"
	"fmt"
	"net/http"
	"sort"
	"strings"

	"adaptive/internal/trace"
	"adaptive/internal/unites"
)

// HTTP surface of the plane:
//
//	GET /metrics       Prometheus text exposition (version 0.0.4)
//	GET /metrics.json  unites.Snapshot JSON plus plane counters
//	GET /trace         live binary trace stream (chunked; see trace.
//	                   WriteStreamHeader for the wire format)
//	GET /healthz       liveness
func (p *Plane) Handler() http.Handler {
	mux := http.NewServeMux()
	mux.HandleFunc("GET /metrics", p.handleMetrics)
	mux.HandleFunc("GET /metrics.json", p.handleMetricsJSON)
	mux.HandleFunc("GET /trace", p.handleTrace)
	mux.HandleFunc("GET /healthz", func(w http.ResponseWriter, _ *http.Request) {
		w.Write([]byte("ok\n"))
	})
	return mux
}

// metricsJSON is the /metrics.json response schema.
type metricsJSON struct {
	Metrics unites.Snapshot   `json:"metrics"`
	Plane   map[string]uint64 `json:"plane"`
}

func (p *Plane) handleMetricsJSON(w http.ResponseWriter, _ *http.Request) {
	doc := metricsJSON{Metrics: p.MetricsSnapshot(), Plane: p.planeCounters()}
	w.Header().Set("Content-Type", "application/json")
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	enc.Encode(doc)
}

// planeCounters collects the plane's own health counters plus any extra
// process counters from Options.Counters, with sorted-stable keys.
func (p *Plane) planeCounters() map[string]uint64 {
	out := map[string]uint64{
		"obsv.scrapes":               p.scrapes.Load(),
		"obsv.trace.frames_out":      p.framesOut.Load(),
		"obsv.trace.subscriber_drop": p.subDrops.Load(),
		"obsv.trace.records":         p.recordsSeen.Load(),
		"obsv.trace.chunks_dropped":  p.TraceDropped(),
	}
	for name, read := range p.counters() {
		out[name] = read()
	}
	return out
}

func (p *Plane) handleMetrics(w http.ResponseWriter, _ *http.Request) {
	snap := p.MetricsSnapshot()
	w.Header().Set("Content-Type", "text/plain; version=0.0.4; charset=utf-8")
	var b strings.Builder
	writeProm(&b, snap, p.planeCounters())
	w.Write([]byte(b.String()))
}

// promName sanitizes a dotted metric name into a Prometheus identifier
// under the adaptive_ namespace.
func promName(name string) string {
	var b strings.Builder
	b.Grow(len("adaptive_") + len(name))
	b.WriteString("adaptive_")
	for i := 0; i < len(name); i++ {
		c := name[i]
		switch {
		case c >= 'a' && c <= 'z', c >= 'A' && c <= 'Z', c >= '0' && c <= '9':
			b.WriteByte(c)
		default: // '.', '-', '/', anything else
			b.WriteByte('_')
		}
	}
	return b.String()
}

// writeProm renders the snapshot as Prometheus text exposition. Counters
// appear at systemwide scope and per host; distributions are merged across
// every connection per metric name (exact histogram merge via the snapshot
// Restore round trip) and rendered in the summary convention with histogram
// quantiles. Output ordering is fully deterministic.
func writeProm(b *strings.Builder, snap unites.Snapshot, plane map[string]uint64) {
	// Systemwide + per-host counters.
	names := make([]string, 0, len(snap.Systemwide))
	for n := range snap.Systemwide {
		names = append(names, n)
	}
	sort.Strings(names)
	for _, n := range names {
		pn := promName(n) + "_total"
		fmt.Fprintf(b, "# TYPE %s counter\n", pn)
		fmt.Fprintf(b, "%s %d\n", pn, snap.Systemwide[n])
		for _, h := range snap.Hosts {
			if v, ok := h.Counters[n]; ok {
				fmt.Fprintf(b, "%s{host=%q} %d\n", pn, h.Scope, v)
			}
		}
	}

	// Distributions, merged across connections per metric name. MergeSnapshot
	// is the allocation-free equivalent of Merge(Restore()) — a render over
	// thousands of connections allocates one aggregate per metric name.
	merged := map[string]*unites.Distribution{}
	for _, c := range snap.Connections {
		for name, ds := range c.Dists {
			d := merged[name]
			if d == nil {
				d = unites.NewDistribution()
				merged[name] = d
			}
			ds.MergeSnapshot(d)
		}
	}
	dnames := make([]string, 0, len(merged))
	for n := range merged {
		dnames = append(dnames, n)
	}
	sort.Strings(dnames)
	for _, n := range dnames {
		d := merged[n]
		pn := promName(n)
		fmt.Fprintf(b, "# TYPE %s summary\n", pn)
		for _, q := range [...]struct {
			label string
			q     float64
		}{{"0.5", 0.5}, {"0.9", 0.9}, {"0.95", 0.95}, {"0.99", 0.99}, {"0.999", 0.999}} {
			fmt.Fprintf(b, "%s{quantile=%q} %g\n", pn, q.label, d.Hist().Quantile(q.q))
		}
		fmt.Fprintf(b, "%s_sum %g\n", pn, d.Sum)
		fmt.Fprintf(b, "%s_count %d\n", pn, d.Count)
	}

	// Plane + extra process counters.
	pnames := make([]string, 0, len(plane))
	for n := range plane {
		pnames = append(pnames, n)
	}
	sort.Strings(pnames)
	for _, n := range pnames {
		pn := promName(n) + "_total"
		fmt.Fprintf(b, "# TYPE %s counter\n", pn)
		fmt.Fprintf(b, "%s %d\n", pn, plane[n])
	}
}

// handleTrace streams trace frames to the client until the run finishes or
// the client goes away. The response body is the ADTS wire format; records
// arrive as the flight recorders cross their flush watermarks.
func (p *Plane) handleTrace(w http.ResponseWriter, r *http.Request) {
	sub, err := p.Subscribe()
	if err != nil {
		http.Error(w, err.Error(), http.StatusServiceUnavailable)
		return
	}
	defer sub.Cancel()
	w.Header().Set("Content-Type", "application/octet-stream")
	flusher, _ := w.(http.Flusher)
	if err := trace.WriteStreamHeader(w); err != nil {
		return
	}
	if flusher != nil {
		flusher.Flush()
	}
	for {
		select {
		case frame, ok := <-sub.Frames():
			if !ok {
				return
			}
			if _, err := w.Write(frame); err != nil {
				return
			}
			if flusher != nil {
				flusher.Flush()
			}
		case <-r.Context().Done():
			return
		}
	}
}
