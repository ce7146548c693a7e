package experiment

import (
	"errors"
	"strings"
	"testing"
	"time"

	"adaptive"
	"adaptive/internal/impair"
	"adaptive/internal/netsim"
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
		if !errors.Is(err, errEstablishStalled) || !strings.Contains(err.Error(), "stall/"+name) {
			t.Errorf("%s: got %v, want the %s establishment-stalled error", name, err, name)
		}
		if wall := time.Since(start); wall > 5*time.Second {
			t.Errorf("%s: gave up after %v of wall time, limit was %v", name, wall, sc.PhaseTimeout)
		}
	}
}

// TestEnvDialWithoutListener is the same failure at the driver itself: the
// peer's port has no listener, so the dial can never establish and env.dial
// must report the stall within its limit on the environment's clock.
func TestEnvDialWithoutListener(t *testing.T) {
	link := netsim.LinkConfig{Bandwidth: 10e6, PropDelay: time.Millisecond, MTU: 1500}
	envs := []*env{
		newSimEnv(76, 2, link, impair.Config{}),
		newLiveEnv(2, impair.Config{}, 0, 0),
	}
	for _, e := range envs {
		const limit = 200 * time.Millisecond
		na, err := e.node(0, 76)
		if err != nil {
			t.Fatal(err)
		}
		nb, err := e.node(1, 77)
		if err != nil {
			t.Fatal(err)
		}
		begin := e.now()
		_, err = e.dial(na, &adaptive.ACD{
			Participants: []adaptive.Addr{nb.Addr()},
			RemotePort:   80,
			Qual:         adaptive.QualQoS{Ordered: true},
		}, nil, limit)
		if !errors.Is(err, errEstablishStalled) {
			t.Errorf("%s: dial to a port nobody listens on returned %v", e.name, err)
		}
		if waited := e.now() - begin; waited < limit || waited > limit+time.Second {
			t.Errorf("%s: gave up after %v on the environment clock, limit %v", e.name, waited, limit)
		}
		e.close()
	}
}
