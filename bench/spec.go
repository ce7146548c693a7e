package main

// The benchmark's declared surface. BENCHMARK.json at the repository root
// lists the same workloads and metrics (selftest_test.go diffs the two);
// bench/README.md is the glossary.

type metricDecl struct {
	name, unit string
	better     string // "lower" or "higher"
}

var workloads = []workloadDef{
	{name: "live_bulk", setup: setupLiveBulk,
		why: "largest PDUs over real UDP loopback sockets: udpnet batching, 1.4 KB checksums, clean-ack path, order, window; sim and netsim bypassed"},
	{name: "live_rr", setup: setupLiveRR,
		why: "64-byte request-response, one outstanding: same udpnet flush queue and ack path in the latency regime; nothing to batch, payload costs vanish"},
	{name: "sim_soak", setup: setupSimSoak,
		why: "1000 mixed-class sessions on a clean simulated link: CPU-bound fast path through session, demux, timers, kernel, netsim; no syscalls"},
	{name: "sim_lossy", setup: setupSimLossy,
		why: "48 sessions under burst loss, reorder, dup and corruption with ACD dials, churn and segue: the traffic that leaves the fast path"},
}

func workloadByName(name string) *workloadDef {
	for i := range workloads {
		if workloads[i].name == name {
			return &workloads[i]
		}
	}
	return nil
}

// endToEnd is what a user of the system sees and the driver gates; every
// workload reports every one. goodput_mbps and lat_* are in the provider's
// clock (wall over udpnet, virtual over netsim). The packet rate and the CPU
// cost per packet are not here: they cannot hold a bound on this class of
// machine and are reported ungated (see the end of perLayer).
var endToEnd = []metricDecl{
	{"setup_s", "s", "lower"},
	{"goodput_mbps", "Mbit/s", "higher"},
	{"peak_rss_mb", "MiB", "lower"},
	{"lat_p50_us", "us", "lower"},
	{"lat_p99_us", "us", "lower"},
}

// perLayer is reported by the traced run (--trace 1). Source: T = tap or
// wrapper span, C = counter behind a public getter, R = layer rung.
var perLayer = []metricDecl{
	{"udpnet.send_ns_per_frame", "ns", "lower"},       // T
	{"udpnet.transit_p50_us", "us", "lower"},          // T
	{"udpnet.transit_p99_us", "us", "lower"},          // T
	{"udpnet.flush_window_share", "share", "lower"},   // C
	{"udpnet.frames_per_datagram", "count", "higher"}, // C
	{"udpnet.rx_batch_depth", "count", "higher"},      // C
	{"udpnet.drops", "count", "lower"},                // C
	{"udpnet.blast_ns_per_pkt", "ns", "lower"},        // R
	{"netsim.send_ns_per_pkt", "ns", "lower"},         // T
	{"netsim.forward_ns_per_pkt", "ns", "lower"},      // R
	{"netsim.drops_burst", "count", "lower"},          // C
	{"netsim.drops_queue", "count", "lower"},          // C
	{"netsim.reordered", "count", "lower"},            // C
	{"netsim.duplicated", "count", "lower"},           // C
	{"netsim.corrupted", "count", "lower"},            // C
	{"sim.events_per_pkt", "count", "lower"},          // C
	{"sim.kernel_self_ns_per_pkt", "ns", "lower"},     // T
	{"sim.event_ns", "ns", "lower"},                   // R
	{"event.scheduled_per_pkt", "count", "lower"},     // C
	{"event.canceled_share", "share", "lower"},        // C
	{"event.rearm_ns", "ns", "lower"},                 // R
	{"wire.encode_ns_per_pdu", "ns", "lower"},         // R
	{"wire.decode_ns_per_pdu", "ns", "lower"},         // R
	{"wire.decode_errors", "count", "lower"},          // C
	{"message.alloc_release_ns", "ns", "lower"},       // R
	{"runtime.allocs_per_pkt", "count", "lower"},      // C
	{"runtime.bytes_per_pkt", "B", "lower"},           // C
	{"runtime.gc_cpu_share", "share", "lower"},        // C
	{"protograph.demux_ns_per_pkt_n1", "ns", "lower"}, // R
	{"protograph.demux_ns_per_pkt_n1000", "ns", "lower"},
	{"protograph.unmatched_pdus", "count", "lower"},  // C
	{"protograph.sessions_total", "count", "lower"},  // C
	{"stack.tx_self_ns_per_pdu", "ns", "lower"},      // T
	{"stack.rx_self_ns_per_pkt", "ns", "lower"},      // T
	{"stack.timer_self_ns_per_pkt", "ns", "lower"},   // T
	{"stack.timer_fires_per_pkt", "count", "lower"},  // T
	{"session.null_out_ns_per_pdu", "ns", "lower"},   // R
	{"xmit.window_ns_per_pdu", "ns", "lower"},        // R
	{"xmit.gaprate_ns_per_pdu", "ns", "lower"},       // R
	{"reliable.sr_ns_per_pdu", "ns", "lower"},        // R
	{"reliable.gbn_ns_per_pdu", "ns", "lower"},       // R
	{"reliable.fec_ns_per_pdu", "ns", "lower"},       // R
	{"reliable.sr_lossy_ns_per_pdu", "ns", "lower"},  // R
	{"reliable.retransmit_share", "share", "lower"},  // C
	{"reliable.rto_fired", "count", "lower"},         // C
	{"reliable.fast_retransmits", "count", "lower"},  // C
	{"reliable.naks_sent", "count", "lower"},         // C
	{"reliable.duplicates", "count", "lower"},        // C
	{"reliable.fec_recovered", "count", "higher"},    // C
	{"reliable.gaps_abandoned", "count", "lower"},    // C
	{"reliable.acks_per_data_pdu", "count", "lower"}, // C
	{"order.sequenced_ns_per_pdu", "ns", "lower"},    // R
	{"conn.establish_virt_p50_us", "us", "lower"},    // C
	{"conn.handshake_retries", "count", "lower"},     // C
	{"conn.establish_wall_us", "us", "lower"},        // T
	{"mantts.open_session_ns", "ns", "lower"},        // T
	{"mantts.transform_ns", "ns", "lower"},           // R
	{"mantts.policy_eval_ns", "ns", "lower"},         // R
	{"tko.synthesize_hit_ns", "ns", "lower"},         // R
	{"tko.synthesize_miss_ns", "ns", "lower"},        // R
	{"tko.template_hit_share", "share", "higher"},    // C
	{"session.segues", "count", "lower"},             // C
	{"session.segue_ns", "ns", "lower"},              // T
	{"unites.record_ns", "ns", "lower"},              // R
	{"arbiter.grant_ns", "ns", "lower"},              // R
	{"trace.emit_disabled_ns", "ns", "lower"},        // R
	{"workload.tick_self_ns_per_msg", "ns", "lower"}, // T
	{"ledger.attributed_share", "share", "higher"},   // T
	{"ledger.rung_share", "share", "higher"},         // R
	{"trace.overhead_share", "share", "lower"},       // T
	// Ungated companions of the end-to-end metrics. The first five are
	// wall-clock figures of the traced run's untraced rig.
	{"pkts_per_s", "1/s", "higher"},            // frames received per wall second, median over slices
	{"pkts_per_s_best", "1/s", "higher"},       // ... best decile over slices
	{"cpu_ns_per_pkt", "ns", "lower"},          // process CPU (getrusage) per frame received, median over slices
	{"cpu_ns_per_pkt_best", "ns", "lower"},     // ... best decile over slices
	{"lat_p99_all_us", "us", "lower"},          // p99 over every latency sample (lat_p99_us is windowed on live_*)
	{"fail_share", "share", "lower"},           // failed / attempted operations
	{"txn_per_s", "1/s", "higher"},             // live_rr: completed request→response per wall second
	{"rtt_p999_us", "us", "lower"},             // live_rr: p99.9 round trip (0 below 10 samples beyond it)
	{"driver.blocked_waits", "count", "lower"}, // times the driver goroutine blocked on a channel
	{"driver.top_ups", "count", "lower"},       // live_bulk: Provider.Wait top-ups
}
