package experiment

import (
	"errors"
	"strings"
	"testing"
	"time"

	"adaptive/internal/impair"
	"adaptive/internal/rig"
)

// TestLiveScenarioEstablishmentStall drives the driver's failure path through
// a whole scenario in both environments: nothing the dialer sends ever reaches
// the listening host (total-loss impairment on both providers), so RunSim and
// RunLive must each give up with the stall error once PhaseTimeout has passed
// on their own clock.
func TestLiveScenarioEstablishmentStall(t *testing.T) {
	sc := &LiveScenario{
		Name:         "stall",
		Seed:         75,
		Impair:       impair.Config{Seed: 75, Loss: 1},
		Phases:       []LivePhase{{Label: "never", Bytes: 1 << 10}},
		PhaseTimeout: 300 * time.Millisecond,
	}
	for name, run := range map[string]func() (*LiveRun, error){"sim": sc.RunSim, "live": sc.RunLive} {
		start := time.Now()
		_, err := run()
		if !errors.Is(err, rig.ErrEstablishStalled) || !strings.Contains(err.Error(), "stall/"+name) {
			t.Errorf("%s: got %v, want the %s establishment-stalled error", name, err, name)
		}
		if wall := time.Since(start); wall > 5*time.Second {
			t.Errorf("%s: gave up after %v of wall time, limit was %v", name, wall, sc.PhaseTimeout)
		}
	}
}
