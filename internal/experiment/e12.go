package experiment

import "fmt"

// MigrationScenario is E12, cross-host session migration (the fleet-scale
// segue). The paper's segue (§4.2) renegotiates a session's mechanism
// configuration in place; E12 lifts the same freeze/transfer/resume
// discipline across hosts. Source host 0 sends before bytes to the peer; once
// a quarter of them has landed (so the hand-off record carries live state:
// queued segments, unacked PDUs, meters) the control plane migrates the
// session to host 1, whose adopted connection sends the remaining after
// bytes. Check gates exact delivery across the boundary, one migration and
// the stale-epoch fence; the golden table pins the sim run.
func MigrationScenario(name string, seed int64, before, after int) *LiveScenario {
	return &LiveScenario{Name: name, Seed: seed, Phases: []LivePhase{
		{Label: "pre-migration", Bytes: before, Await: before / 4},
		{Label: "post-migration", Bytes: after, MigrateTo: 1},
	}}
}

// RunE12 regenerates the E12 artifact: the sim scenario's migration outcome.
func RunE12() []Table {
	sc := MigrationScenario("e12", 12, 256<<10, 256<<10)
	t := Table{
		ID:      "E12",
		Title:   "Cross-host session migration (fleet-scale segue)",
		Headers: []string{"run", "delivered", "migration", "fenced", "epochs", "status"},
	}
	run, err := sc.RunSim()
	if err == nil {
		err = sc.Check(run)
	}
	status := "ok"
	if err != nil {
		status = err.Error()
	}
	row := []string{"sim#1", "-", "-", "-", "-", status}
	if run != nil {
		row[1] = fmt.Sprintf("%d B", len(run.Delivered))
		row[2] = fmtDur(run.MigrationTime)
		row[3] = fmt.Sprintf("%d", run.FencedPDUs)
		row[4] = fmt.Sprintf("%d", run.Status.LeaseEpochs)
	}
	t.Rows = append(t.Rows, row)
	return []Table{t}
}
