package experiment

import (
	"bytes"
	"testing"
	"time"

	"adaptive"
	"adaptive/internal/impair"
)

// checkParity asserts the two environments both delivered the exact source
// stream — zero data loss, byte-identical content.
func checkParity(t *testing.T, sc *LiveScenario, simRun, liveRun *LiveRun) {
	t.Helper()
	src := sc.Payload()
	if !bytes.Equal(simRun.Delivered, src) {
		t.Fatalf("sim run corrupted the stream: delivered %d of %d bytes (equal=%v)",
			len(simRun.Delivered), len(src), bytes.Equal(simRun.Delivered, src))
	}
	if !bytes.Equal(liveRun.Delivered, src) {
		t.Fatalf("live run corrupted the stream: delivered %d of %d bytes",
			len(liveRun.Delivered), len(src))
	}
	if !bytes.Equal(simRun.Delivered, liveRun.Delivered) {
		t.Fatal("sim and live delivered streams differ")
	}
}

// TestLiveE3SegueParity is the E3 scenario over real sockets: a bulk
// transfer that switches recovery selective-repeat -> go-back-n -> back
// mid-stream. Both the simulated and the UDP-loopback run must complete
// every segue and deliver the identical byte stream.
func TestLiveE3SegueParity(t *testing.T) {
	sc := &LiveScenario{
		Name: "e3-segue",
		Seed: 71,
		Phases: []LivePhase{
			{Label: "sr", Bytes: 128 << 10},
			{Label: "gbn", Bytes: 128 << 10,
				Mutate: func(s *adaptive.Spec) { s.Recovery = adaptive.RecoveryGoBackN }},
			{Label: "sr-again", Bytes: 128 << 10,
				Mutate: func(s *adaptive.Spec) { s.Recovery = adaptive.RecoverySelectiveRepeat }},
		},
	}
	simRun, err := sc.RunSim()
	if err != nil {
		t.Fatal(err)
	}
	liveRun, err := sc.RunLive()
	if err != nil {
		t.Fatal(err)
	}
	checkParity(t, sc, simRun, liveRun)
	if simRun.Stats.Segues < 2 {
		t.Fatalf("sim run performed %d segues, want >= 2", simRun.Stats.Segues)
	}
	if liveRun.Stats.Segues < 2 {
		t.Fatalf("live run performed %d segues, want >= 2", liveRun.Stats.Segues)
	}
}

// TestLiveE9LossyParity is the E9-style scenario: the same seeded software
// impairment shim (loss + reorder + duplication — no netem, no privileges)
// wraps both providers, and the reliable session must still deliver the
// byte-identical stream in both environments.
func TestLiveE9LossyParity(t *testing.T) {
	sc := &LiveScenario{
		Name: "e9-lossy",
		Seed: 72,
		Impair: impair.Config{
			Seed:         72,
			Loss:         0.02,
			DupRate:      0.01,
			ReorderRate:  0.02,
			ReorderDelay: 3 * time.Millisecond,
		},
		Phases:       []LivePhase{{Label: "lossy-bulk", Bytes: 256 << 10}},
		PhaseTimeout: 60 * time.Second,
	}
	simRun, err := sc.RunSim()
	if err != nil {
		t.Fatal(err)
	}
	liveRun, err := sc.RunLive()
	if err != nil {
		t.Fatal(err)
	}
	checkParity(t, sc, simRun, liveRun)
	// The scenario is only meaningful if the shim actually hurt: both
	// environments must have seen real drops that recovery repaired.
	if simRun.Impairments.Dropped == 0 {
		t.Fatal("sim run saw no impairment drops")
	}
	if liveRun.Impairments.Dropped == 0 {
		t.Fatal("live run saw no impairment drops")
	}
	if simRun.Stats.Retransmissions == 0 && liveRun.Stats.Retransmissions == 0 {
		t.Fatal("no retransmissions anywhere: recovery never engaged")
	}
}

// TestLiveBatchedParity runs the segue scenario with the batched datapath
// fully engaged (flush queue, frame trains, batch upcalls) and requires the
// delivered stream to remain byte-identical with the simulator: batching
// must be invisible to the protocol — no loss, no reordering, no
// corruption introduced by coalescing.
func TestLiveBatchedParity(t *testing.T) {
	sc := &LiveScenario{
		Name:        "e3-segue-batched",
		Seed:        73,
		FlushWindow: 200 * time.Microsecond,
		Phases: []LivePhase{
			{Label: "sr", Bytes: 128 << 10},
			{Label: "gbn", Bytes: 128 << 10,
				Mutate: func(s *adaptive.Spec) { s.Recovery = adaptive.RecoveryGoBackN }},
		},
	}
	simRun, err := sc.RunSim()
	if err != nil {
		t.Fatal(err)
	}
	liveRun, err := sc.RunLive()
	if err != nil {
		t.Fatal(err)
	}
	checkParity(t, sc, simRun, liveRun)
}

// TestLiveFlushWindowAB is the bitwise A/B equivalence gate for the send
// batching: the identical scenario over the live provider with
// FlushWindow=0 (the pre-batching per-packet path) and with batching on
// must both deliver exactly the source stream — the flush queue cannot
// change what arrives, only how many syscalls it takes.
func TestLiveFlushWindowAB(t *testing.T) {
	mk := func(window time.Duration) *LiveScenario {
		return &LiveScenario{
			Name:        "ab-flush",
			Seed:        74,
			FlushWindow: window,
			Phases:      []LivePhase{{Label: "bulk", Bytes: 192 << 10}},
		}
	}
	baseline := mk(0) // per-packet: pre-batching behavior
	batched := mk(200 * time.Microsecond)

	a, err := baseline.RunLive()
	if err != nil {
		t.Fatal(err)
	}
	b, err := batched.RunLive()
	if err != nil {
		t.Fatal(err)
	}
	src := baseline.Payload()
	if !bytes.Equal(a.Delivered, src) {
		t.Fatalf("per-packet run corrupted the stream: %d of %d bytes", len(a.Delivered), len(src))
	}
	if !bytes.Equal(b.Delivered, src) {
		t.Fatalf("batched run corrupted the stream: %d of %d bytes", len(b.Delivered), len(src))
	}
	if !bytes.Equal(a.Delivered, b.Delivered) {
		t.Fatal("per-packet and batched runs delivered different streams")
	}
}

// TestLiveReplyFlushTurnsTheWindow is a fixed-window selective-repeat bulk
// transfer over udpnet with a 250 ms flush window, the window set above the
// provider's 32-frame batch so data leaves by size flushes. Each window turn
// waits on the receiver's acks; were they held for the flush window like data,
// the transfer would take at least turns × window. The reply flush writes
// them as soon as the receive batch that produced them ends, so the transfer
// — dial, a segue to the pinned window and the few flush windows that setup
// and the transfer's tail still wait — must finish in under half that. The
// flush window is long against the CPU one turn costs even under -race with
// coverage on (≈ 40 ms), so only the ack wait can decide the outcome.
func TestLiveReplyFlushTurnsTheWindow(t *testing.T) {
	const (
		flush  = 250 * time.Millisecond
		window = 48
	)
	sc := &LiveScenario{
		Name:        "reply-flush",
		Seed:        75,
		FlushWindow: flush,
		Phases: []LivePhase{{Label: "bulk", Bytes: 2 << 20,
			Mutate: func(s *adaptive.Spec) {
				s.Recovery = adaptive.RecoverySelectiveRepeat
				s.Window, s.WindowSize = adaptive.WindowFixed, window
			}}},
	}
	start := time.Now()
	run, err := sc.RunLive()
	if err != nil {
		t.Fatal(err)
	}
	took := time.Since(start)
	if !bytes.Equal(run.Delivered, sc.Payload()) {
		t.Fatalf("delivered %d of %d bytes", len(run.Delivered), sc.TotalBytes())
	}
	turns := time.Duration(run.Stats.SentPDUs / window)
	t.Logf("%d PDUs in %d window turns: %v (turns × flush window = %v)", run.Stats.SentPDUs, turns, took, turns*flush)
	if took >= turns*flush/2 {
		t.Fatalf("transfer took %v, want under half of %d turns × %v", took, turns, flush)
	}
}
