// Command adaptivectl is the control-plane operator tool: it drives a
// multi-host deployment and reports the controller's placement/routing view
// — which host owns each session's egress, at which lease epoch, and how
// admission and migration are trending.
//
// Both harnesses run a deployment in one process (the controller is an
// in-process authority; only handoff records and ownership updates travel
// the wire), so adaptivectl operates on a deployment it launches itself:
//
//	adaptivectl migrate             # E12: sim migration, print the outcome
//	adaptivectl migrate -live       # the same handoff over UDP loopback
//	adaptivectl status -scenario scenarios/migration-handover.json
//
// "migrate" runs the three-host E12 scenario (source, target, transfer
// peer), migrates the session mid-stream, replays a stale-epoch PDU from
// the old owner, and prints delivery/fencing results plus the final
// controller status. "status" runs a JSON scenario (which may itself carry
// migrate events) and prints the controller view after the run.
package main

import (
	"flag"
	"fmt"
	"os"
	"time"

	"adaptive"
	"adaptive/internal/experiment"
	"adaptive/internal/scenario"
)

func main() {
	if len(os.Args) < 2 {
		usage()
		os.Exit(2)
	}
	switch os.Args[1] {
	case "migrate":
		runMigrate(os.Args[2:])
	case "status":
		runStatus(os.Args[2:])
	case "-h", "--help", "help":
		usage()
	default:
		fmt.Fprintf(os.Stderr, "adaptivectl: unknown command %q\n\n", os.Args[1])
		usage()
		os.Exit(2)
	}
}

func usage() {
	fmt.Fprint(os.Stderr, `usage:
  adaptivectl migrate [-live] [-seed N] [-phase1 bytes] [-phase2 bytes]
        run the E12 cross-host migration and print the outcome
  adaptivectl status -scenario file.json
        run a scenario and print the controller's placement view
`)
}

func runMigrate(args []string) {
	fs := flag.NewFlagSet("migrate", flag.ExitOnError)
	var (
		live   = fs.Bool("live", false, "run over UDP loopback instead of the simulator")
		seed   = fs.Int64("seed", 12, "deterministic seed")
		phase1 = fs.Int("phase1", 256<<10, "bytes sent from the source host before the handoff")
		phase2 = fs.Int("phase2", 256<<10, "bytes sent from the adopted connection after it")
	)
	fs.Parse(args)

	sc := experiment.MigrationScenario("adaptivectl", *seed, *phase1, *phase2)
	env := "sim"
	run := func() (*experiment.LiveRun, error) { return sc.RunSim() }
	if *live {
		env = "live"
		run = func() (*experiment.LiveRun, error) { return sc.RunLive() }
	}
	start := time.Now()
	r, err := run()
	if err != nil {
		fmt.Fprintf(os.Stderr, "adaptivectl: %v\n", err)
		os.Exit(1)
	}
	gate := "PASS"
	if err := sc.Check(r); err != nil {
		gate = "FAIL: " + err.Error()
	}
	fmt.Printf("environment        %s (%.2fs wall)\n", env, time.Since(start).Seconds())
	fmt.Printf("delivered          %d bytes (source payload %d)\n", len(r.Delivered), *phase1+*phase2)
	fmt.Printf("migration time     %v\n", r.MigrationTime)
	fmt.Printf("stale PDUs fenced  %d\n", r.FencedPDUs)
	fmt.Printf("gate               %s\n\n", gate)
	printStatus(r.Status)
	if gate != "PASS" {
		os.Exit(1)
	}
}

func runStatus(args []string) {
	fs := flag.NewFlagSet("status", flag.ExitOnError)
	file := fs.String("scenario", "", "scenario JSON file (see scenarios/)")
	fs.Parse(args)
	if *file == "" {
		fmt.Fprintln(os.Stderr, "adaptivectl status: -scenario is required")
		os.Exit(2)
	}
	raw, err := os.ReadFile(*file)
	if err != nil {
		fmt.Fprintf(os.Stderr, "adaptivectl: %v\n", err)
		os.Exit(1)
	}
	doc, err := scenario.Parse(raw)
	if err != nil {
		fmt.Fprintf(os.Stderr, "adaptivectl: %v\n", err)
		os.Exit(1)
	}
	rt, err := scenario.Build(doc)
	if err != nil {
		fmt.Fprintf(os.Stderr, "adaptivectl: %v\n", err)
		os.Exit(1)
	}
	res, err := rt.Run()
	if err != nil {
		fmt.Fprintf(os.Stderr, "adaptivectl: %v\n", err)
		os.Exit(1)
	}
	for _, s := range res.Sessions {
		fmt.Printf("session %-12s delivered %d msgs / %d bytes\n",
			s.Name, s.Meter.Messages, s.Meter.Bytes)
	}
	fmt.Println()
	if rt.Control == nil {
		fmt.Println("no control plane (the scenario has no migrate events)")
		return
	}
	printStatus(rt.Control.Status())
}

func printStatus(st adaptive.ControlStatus) {
	fmt.Println("hosts:")
	for _, h := range st.Hosts {
		cap := "unlimited"
		if h.Capacity > 0 {
			cap = fmt.Sprintf("%d", h.Capacity)
		}
		fmt.Printf("  host %-4d sessions %-4d capacity %-9s sessions_live %-4d sessions_retired_total %d\n",
			h.Host, h.Sessions, cap, h.Live, h.Retired)
	}
	fmt.Println("placements:")
	if len(st.Placements) == 0 {
		fmt.Println("  (none)")
	}
	for _, p := range st.Placements {
		state := ""
		if p.Migrating {
			state = fmt.Sprintf("  migrating -> host %d", p.Target)
		}
		fmt.Printf("  conn %-6d owner host %-4d epoch %d%s\n", p.ConnID, p.Owner, p.Epoch, state)
	}
	fmt.Printf("counters: placed=%d migrations=%d failed=%d admission_rejects=%d lease_epochs=%d\n",
		st.SessionsPlaced, st.Migrations, st.MigrationsFailed, st.AdmissionRejects, st.LeaseEpochs)
}
