package experiment

import (
	"adaptive/internal/trace"
	"adaptive/internal/unites"
)

// Flight-recorded experiment runs. Each helper runs one reference experiment
// with a trace.Recorder attached to the kernel and every node, and returns
// the collected trace set. These back the adaptivetrace CLI (-record), the
// seed-determinism regression tests, and the cli_smoke.sh trace-diff gate.
//
// buffer is the per-recorder ring capacity in records (<= 0 uses
// trace.DefaultBuffer); sample is the keyed-sampling stride for high-rate
// events (0 or 1 records everything; must be a power of two).

// newTraceRecorder builds one configured recorder.
func newTraceRecorder(buffer int, sample uint64) *trace.Recorder {
	r := trace.NewRecorder(buffer)
	if sample > 1 {
		if err := r.SetSample(sample); err != nil {
			panic(err)
		}
	}
	return r
}

// TraceE3 flight-records the adaptive (policy-segue) E3 case — the run whose
// Chrome export shows the segue begin/commit markers over the data flow.
func TraceE3(buffer int, sample uint64) *trace.Set {
	rec := newTraceRecorder(buffer, sample)
	runE3Case("adaptive (TSA policy)", "adaptive", rec)
	return trace.Collect(rec)
}

// TraceE9 flight-records the adaptive burst-loss E9 case. perturb injects a
// single extra no-op kernel event at t=2s, deliberately breaking the
// same-seed guarantee so trace.Diff has a divergence to localize.
func TraceE9(buffer int, sample uint64, perturb bool) *trace.Set {
	rec := newTraceRecorder(buffer, sample)
	runE9Case("burst loss (GE ~4.5%)", true, rec, perturb)
	return trace.Collect(rec)
}

// TraceE10 flight-records an n-session E10 soak with one recorder per shard,
// collected in shard order (deterministic across runs and worker counts).
// The optional repo, when non-nil, receives every shard's UNITES metrics —
// the shared-repository mode the -race stress test exercises.
func TraceE10(n, buffer int, sample uint64, repo *unites.Repository) *trace.Set {
	recs := make([]*trace.Recorder, e10Shards)
	for i := range recs {
		recs[i] = newTraceRecorder(buffer, sample)
	}
	runE10ScaleOpt(n, repo, recs)
	return trace.Collect(recs...)
}
