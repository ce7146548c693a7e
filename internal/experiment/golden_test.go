package experiment

import (
	"flag"
	"os"
	"runtime"
	"strings"
	"testing"
)

var update = flag.Bool("update", false, "rewrite testdata/eseries.golden")

// wallClock names the runners whose rows are wall-clock measurements; every
// other runner's tables are virtual-time arithmetic on seeded simulations.
var wallClock = map[string]bool{"F2": true, "E6": true}

// TestESeriesGolden pins the rendered tables of every deterministic runner,
// byte for byte, in presentation order (what `adaptivebench` prints, minus the
// wall-clock runners). It is the gate that lets rig and stack refactors prove
// they changed no virtual number. `make golden-update` rewrites the file.
func TestESeriesGolden(t *testing.T) {
	var runners []Runner
	for _, r := range All() {
		if !wallClock[r.ID] {
			runners = append(runners, r)
		}
	}
	var sb strings.Builder
	for _, tb := range runParallel(runners, runtime.GOMAXPROCS(0)) {
		sb.WriteString(tb.Render())
		sb.WriteByte('\n')
	}
	got := sb.String()

	const golden = "testdata/eseries.golden"
	if *update {
		if err := os.WriteFile(golden, []byte(got), 0o644); err != nil {
			t.Fatal(err)
		}
		return
	}
	want, err := os.ReadFile(golden)
	if err != nil {
		t.Fatal(err)
	}
	if got == string(want) {
		return
	}
	gl, wl := strings.Split(got, "\n"), strings.Split(string(want), "\n")
	for i := 0; i < len(gl) && i < len(wl); i++ {
		if gl[i] != wl[i] {
			t.Fatalf("tables differ from %s at line %d:\n got: %s\nwant: %s", golden, i+1, gl[i], wl[i])
		}
	}
	t.Fatalf("tables differ from %s in length: got %d lines, want %d", golden, len(gl), len(wl))
}
