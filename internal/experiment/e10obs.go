package experiment

import (
	"fmt"

	"adaptive/internal/obsv"
	"adaptive/internal/trace"
	"adaptive/internal/unites"
)

// Observed E10: the scale soak with a live observability plane attached —
// shared UNITES repository, one streaming flight recorder per shard, and the
// obsv HTTP endpoint. This is what `adaptivebench -soak` serves and what the
// overhead A/B benchmark measures; the simulation results stay byte-identical
// to the unobserved soak because observation never schedules kernel events.

// Fingerprint renders the deterministic core of a soak result — counters and
// merged latency/jitter quantiles, floats in exact hex. Two byte-identical
// simulations yield byte-identical fingerprints; the soak harness and the
// scrape-under-load race test both gate on it.
func (r E10Result) Fingerprint() string {
	return fmt.Sprintf("n=%d delivered=%d events=%d lat50=%x lat999=%x jit99=%x",
		r.Sessions, r.Delivered, r.Events,
		r.Latency.Quantile(0.5), r.Latency.Quantile(0.999), r.Jitter.Quantile(0.99))
}

// E10ObservedConfig sizes the plane attached to an observed soak.
type E10ObservedConfig struct {
	// Buffer is the per-shard recorder ring in records (<= 0 selects 1<<14).
	Buffer int
	// Sample keeps 1/N keyed data-path trace events (0 or 1 keeps all).
	Sample uint64
	// Archive keeps the in-process reassembly for post-run trace.Diff gates.
	Archive bool
	// Listen, when non-empty, serves the obsv HTTP endpoint on this address.
	Listen string
}

// E10Observed is a soak rig whose plane outlives individual iterations: the
// repository and recorders accrue across RunIteration calls, so a long soak
// presents one continuous metric and trace timeline to scrapers and tails.
type E10Observed struct {
	Repo      *unites.Repository
	Recorders []*trace.Recorder
	Plane     *obsv.Plane
}

// StartE10Observed builds the shared repository, the per-shard streaming
// recorders, and the plane (serving HTTP when cfg.Listen is set). Attach
// trace tails before the first iteration to capture from record zero.
func StartE10Observed(cfg E10ObservedConfig) (*E10Observed, error) {
	if cfg.Buffer <= 0 {
		cfg.Buffer = 1 << 14
	}
	repo := unites.NewRepository()
	recs := make([]*trace.Recorder, e10Shards)
	for i := range recs {
		recs[i] = newTraceRecorder(cfg.Buffer, cfg.Sample)
	}
	p, err := obsv.New(obsv.Options{
		Repository: repo,
		Recorders:  recs,
		Archive:    cfg.Archive,
	})
	if err != nil {
		return nil, err
	}
	if cfg.Listen != "" {
		if _, err := p.Serve(cfg.Listen); err != nil {
			p.Close()
			return nil, err
		}
	}
	return &E10Observed{Repo: repo, Recorders: recs, Plane: p}, nil
}

// Addr returns the HTTP endpoint's bound address ("" when not serving).
func (o *E10Observed) Addr() string { return o.Plane.Addr() }

// RunIteration runs one n-session soak recording into the shared plane. The
// recorders' emit indices keep growing across iterations, so the streamed
// trace stays gap-free over the whole soak.
func (o *E10Observed) RunIteration(n int) E10Result {
	return runE10ScaleOpt(n, o.Repo, o.Recorders)
}

// Finish flushes the recorders' retained tails into the stream and ends it;
// attached tails observe end-of-stream. Call after the last iteration.
func (o *E10Observed) Finish() { o.Plane.FinishTrace() }

// Close finishes the trace and stops the HTTP endpoint.
func (o *E10Observed) Close() error { return o.Plane.Close() }
