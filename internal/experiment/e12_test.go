package experiment

import (
	"bytes"
	"testing"
)

// TestE12SimMigration runs the migration scenario on the simulator and gates
// the acceptance criteria: exact delivery across the handoff, exactly one
// migration, stale-epoch replay fenced.
func TestE12SimMigration(t *testing.T) {
	sc := MigrationScenario("e12-sim", 12, 256<<10, 256<<10)
	run, err := sc.RunSim()
	if err != nil {
		t.Fatal(err)
	}
	if err := sc.Check(run); err != nil {
		t.Fatal(err)
	}
}

// TestE12LiveMigration is the live half of the parity gate: the same
// scenario over UDP loopback sockets must migrate host-to-host with zero
// app-stream divergence, and both environments must deliver the identical
// byte stream.
func TestE12LiveMigration(t *testing.T) {
	if testing.Short() {
		t.Skip("live sockets in -short mode")
	}
	sc := MigrationScenario("e12-live", 12, 256<<10, 256<<10)
	simRun, err := sc.RunSim()
	if err != nil {
		t.Fatal(err)
	}
	liveRun, err := sc.RunLive()
	if err != nil {
		t.Fatal(err)
	}
	if err := sc.Check(simRun); err != nil {
		t.Fatal(err)
	}
	if err := sc.Check(liveRun); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(simRun.Delivered, liveRun.Delivered) {
		t.Fatal("sim and live migration runs delivered different streams")
	}
}
