package experiment

import (
	"testing"
)

// TestE13SimArbiter runs both arms of the shared-bottleneck scenario on the
// simulator and gates the acceptance criteria: Jain fairness >= 0.9,
// isochronous p99 improved over the isolated arm, aggregate goodput held,
// and the video bitrate ladder engaged.
func TestE13SimArbiter(t *testing.T) {
	sc := &E13Scenario{Name: "e13-sim", Seed: 13}
	iso, err := sc.RunSim(false)
	if err != nil {
		t.Fatal(err)
	}
	arb, err := sc.RunSim(true)
	if err != nil {
		t.Fatal(err)
	}
	if err := sc.Check(iso, arb); err != nil {
		t.Fatal(err)
	}
}

// TestE13SimDeterministic reruns the arbitrated arm at the same seed and
// requires identical fingerprints. The golden table pins only what it prints
// (rounded rates and quantiles, grants, decreases, downshifts); the
// fingerprint also carries exact byte, message and incomplete-message counts
// per flow, OLTP issued/completed and the congestion-hint count.
func TestE13SimDeterministic(t *testing.T) {
	sc := &E13Scenario{Name: "e13-det", Seed: 13}
	a, err := sc.RunSim(true)
	if err != nil {
		t.Fatal(err)
	}
	b, err := sc.RunSim(true)
	if err != nil {
		t.Fatal(err)
	}
	if a.Fingerprint != b.Fingerprint {
		t.Fatalf("same-seed arbitrated reruns diverged:\n  %s\n  %s", a.Fingerprint, b.Fingerprint)
	}
}

// TestE13LiveArbiter is the live leg: real UDP loopback sockets behind the
// impairment shim. The shim's drop counter must reach the arbiter as
// congestion hints and force the capacity estimate to back off.
func TestE13LiveArbiter(t *testing.T) {
	if testing.Short() {
		t.Skip("live sockets in -short mode")
	}
	sc := &E13Scenario{Name: "e13-live", Seed: 13}
	run, err := sc.RunLive()
	if err != nil {
		t.Fatal(err)
	}
	if err := sc.CheckLive(run); err != nil {
		t.Fatal(err)
	}
}
