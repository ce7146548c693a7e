package main

import (
	"adaptive"
	"adaptive/internal/netsim"
	"adaptive/internal/udpnet"
)

// unitesNames are the UNITES whitebox counters the per-layer metrics read
// (through unites.Repository.TotalCounter).
var unitesNames = []string{
	"rel.retransmissions", "rel.rto_fired", "rel.fast_retransmits",
	"rel.naks_sent", "rel.duplicates", "rel.fec_recovered", "rel.gaps_abandoned",
	"conn.handshake_retries", "session.segues",
}

// snapshot is every counter the benchmark reads through a public getter, at
// one instant. Take it on the provider's loop goroutine (or between kernel
// slices): the stack's counters are loop-confined.
type snapshot struct {
	unites                  map[string]uint64
	evScheduled, evCanceled uint64
	decodeErrors, unmatched uint64
	sessionsTotal           uint64
	tkoHits, tkoMiss        uint64
	rt                      rtSample
	udp                     udpnet.BatchCounters
	udpDroppedPosts         uint64
	link                    netsim.LinkStats
	kernelEvents            uint64
}

func takeSnapshot(repo *adaptive.MetricsRepository, nodes ...*adaptive.Node) snapshot {
	s := snapshot{unites: make(map[string]uint64, len(unitesNames)), rt: rtNow()}
	for _, n := range unitesNames {
		s.unites[n] = repo.TotalCounter(n)
	}
	for _, n := range nodes {
		st := n.Stack()
		ev := st.Timers().Stats()
		s.evScheduled += ev.Scheduled
		s.evCanceled += ev.Canceled
		ps := st.Stats()
		s.decodeErrors += ps.DecodeErrors
		s.unmatched += ps.UnmatchedPDUs
		s.sessionsTotal += ps.SessionsTotal
		ts := st.Synth().Stats()
		s.tkoHits += ts.TemplateHits
		s.tkoMiss += ts.TemplateMiss
	}
	return s
}

func (s *snapshot) addLinks(links ...*netsim.Link) {
	for _, l := range links {
		ls := l.Stats()
		s.link.DropsBurst += ls.DropsBurst
		s.link.DropsQueue += ls.DropsQueue
		s.link.Reordered += ls.Reordered
		s.link.Duplicated += ls.Duplicated
		s.link.Corrupted += ls.Corrupted
	}
}

// counterMetrics turns two snapshots into the source-C per-layer metrics.
// pkts is the received-frame delta between them.
func counterMetrics(a, b snapshot, pkts uint64) map[string]float64 {
	p := float64(pkts)
	u := func(name string) float64 { return float64(b.unites[name] - a.unites[name]) }
	sched := float64(b.evScheduled - a.evScheduled)
	out := map[string]float64{
		"event.scheduled_per_pkt":   ratio(sched, p),
		"event.canceled_share":      ratio(float64(b.evCanceled-a.evCanceled), sched),
		"wire.decode_errors":        float64(b.decodeErrors - a.decodeErrors),
		"protograph.unmatched_pdus": float64(b.unmatched - a.unmatched),
		"protograph.sessions_total": float64(b.sessionsTotal - a.sessionsTotal),
		"tko.template_hit_share": ratio(float64(b.tkoHits-a.tkoHits),
			float64(b.tkoHits-a.tkoHits+b.tkoMiss-a.tkoMiss)),
		"runtime.allocs_per_pkt": ratio(float64(b.rt.mallocs-a.rt.mallocs), p),
		"runtime.bytes_per_pkt":  ratio(float64(b.rt.bytes-a.rt.bytes), p),
		"runtime.gc_cpu_share":   ratio(b.rt.gcCPU-a.rt.gcCPU, b.rt.allCPU-a.rt.allCPU),

		"reliable.rto_fired":        u("rel.rto_fired"),
		"reliable.fast_retransmits": u("rel.fast_retransmits"),
		"reliable.naks_sent":        u("rel.naks_sent"),
		"reliable.duplicates":       u("rel.duplicates"),
		"reliable.fec_recovered":    u("rel.fec_recovered"),
		"reliable.gaps_abandoned":   u("rel.gaps_abandoned"),
		"conn.handshake_retries":    u("conn.handshake_retries"),
		"session.segues":            u("session.segues"),

		"udpnet.flush_window_share": ratio(float64(b.udp.FlushesWindow-a.udp.FlushesWindow),
			float64(b.udp.BatchesOut-a.udp.BatchesOut)),
		"udpnet.frames_per_datagram": ratio(float64(b.udp.FramesOut-a.udp.FramesOut),
			float64(b.udp.DatagramsOut-a.udp.DatagramsOut)),
		"udpnet.rx_batch_depth": ratio(float64(b.udp.DatagramsIn-a.udp.DatagramsIn),
			float64(b.udp.BatchesIn-a.udp.BatchesIn)),
		"udpnet.drops": float64(b.udpDroppedPosts - a.udpDroppedPosts +
			b.udp.SkippedCopies - a.udp.SkippedCopies + b.udp.SendErrors - a.udp.SendErrors),

		"netsim.drops_burst": float64(b.link.DropsBurst - a.link.DropsBurst),
		"netsim.drops_queue": float64(b.link.DropsQueue - a.link.DropsQueue),
		"netsim.reordered":   float64(b.link.Reordered - a.link.Reordered),
		"netsim.duplicated":  float64(b.link.Duplicated - a.link.Duplicated),
		"netsim.corrupted":   float64(b.link.Corrupted - a.link.Corrupted),
		"sim.events_per_pkt": ratio(float64(b.kernelEvents-a.kernelEvents), p),
	}
	// The retransmit share needs the count of data PDUs, which only the
	// tap's frame log separates from acks; ledger.go fills it in. The raw
	// retransmission count rides along for that.
	out["reliable.retransmissions"] = u("rel.retransmissions")
	return out
}
