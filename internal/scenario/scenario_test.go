package scenario

import (
	"encoding/json"
	"fmt"
	"os"
	"reflect"

	"adaptive"
	"strings"
	"testing"
	"time"
)

const basicScenario = `{
  "seed": 7,
  "hosts": ["client", "server"],
  "links": [
    {"from": "client", "to": "server", "bandwidth_bps": 10e6, "delay_ms": 10, "mtu": 1500, "drop_rate": 0.01},
    {"from": "server", "to": "client", "bandwidth_bps": 10e6, "delay_ms": 10, "mtu": 1500}
  ],
  "sessions": [
    {"name": "xfer", "from": "client", "to": "server", "port": 80,
     "acd": {"avg_bps": 8e6, "ordered": true},
     "workload": "generate bulk size=524288 chunk=65536"}
  ],
  "run_ms": 60000
}`

func TestBasicScenarioRuns(t *testing.T) {
	res, err := Load([]byte(basicScenario))
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Sessions) != 1 {
		t.Fatalf("%d sessions", len(res.Sessions))
	}
	s := res.Sessions[0]
	if s.Name != "xfer" || s.Generated != 8 {
		t.Fatalf("session %q generated %d", s.Name, s.Generated)
	}
	if s.Meter.Bytes != 524288 {
		t.Fatalf("delivered %d bytes", s.Meter.Bytes)
	}
	if s.Sent.Retransmissions == 0 {
		t.Fatal("1% loss produced no retransmissions")
	}
	if res.Repo.TotalCounter("pdu.sent") == 0 {
		t.Fatal("UNITES not wired")
	}
}

func TestScenarioDeterministic(t *testing.T) {
	r1, err := Load([]byte(basicScenario))
	if err != nil {
		t.Fatal(err)
	}
	r2, _ := Load([]byte(basicScenario))
	if r1.Sessions[0].Sent.SentPDUs != r2.Sessions[0].Sent.SentPDUs ||
		r1.Sessions[0].Sent.Retransmissions != r2.Sessions[0].Sent.Retransmissions {
		t.Fatal("same scenario, different outcomes")
	}
}

func TestScenarioEvents(t *testing.T) {
	const withEvents = `{
	  "hosts": ["a", "b"],
	  "links": [
	    {"from": "a", "to": "b", "bandwidth_bps": 10e6, "delay_ms": 5, "queue_bytes": 32000},
	    {"from": "b", "to": "a", "bandwidth_bps": 10e6, "delay_ms": 5}
	  ],
	  "sessions": [
	    {"name": "s", "from": "a", "to": "b",
	     "acd": {"avg_bps": 8e6, "ordered": true},
	     "workload": "generate bulk size=2097152 chunk=65536"}
	  ],
	  "events": [
	    {"at_ms": 200, "cross_traffic": {"from": "a", "to": "b", "rate_bps": 9.5e6}},
	    {"at_ms": 1500, "cross_traffic": {"from": "a", "to": "b", "rate_bps": 0}}
	  ],
	  "run_ms": 120000
	}`
	res, err := Load([]byte(withEvents))
	if err != nil {
		t.Fatal(err)
	}
	s := res.Sessions[0]
	if s.Meter.Bytes != 2097152 {
		t.Fatalf("delivered %d", s.Meter.Bytes)
	}
	if s.Sent.Retransmissions == 0 {
		t.Fatal("cross-traffic event produced no congestion loss")
	}
}

func TestScenarioRouteSwitch(t *testing.T) {
	const withSwitch = `{
	  "hosts": ["a", "b"],
	  "links": [
	    {"from": "a", "to": "b", "bandwidth_bps": 10e6, "delay_ms": 5},
	    {"from": "b", "to": "a", "bandwidth_bps": 10e6, "delay_ms": 5}
	  ],
	  "sessions": [
	    {"name": "s", "from": "a", "to": "b",
	     "acd": {"avg_bps": 8e6, "ordered": true},
	     "workload": "generate bulk size=1048576 chunk=65536"}
	  ],
	  "events": [
	    {"at_ms": 100, "route_switch": {"from": "a", "to": "b",
	      "link": {"from": "a", "to": "b", "bandwidth_bps": 10e6, "delay_ms": 275}}}
	  ],
	  "run_ms": 300000
	}`
	res, err := Load([]byte(withSwitch))
	if err != nil {
		t.Fatal(err)
	}
	s := res.Sessions[0]
	if s.Meter.Bytes != 1048576 {
		t.Fatalf("delivered %d across route switch", s.Meter.Bytes)
	}
	// The satellite RTT must show up in delivered latency.
	if s.Meter.Latency.Max < 0.28 {
		t.Fatalf("max latency %.3fs suggests the route never switched", s.Meter.Latency.Max)
	}
}

func TestScenarioMulticast(t *testing.T) {
	const mc = `{
	  "hosts": ["src", "m1", "m2"],
	  "links": [
	    {"from": "src", "to": "m1", "bandwidth_bps": 10e6, "delay_ms": 2},
	    {"from": "m1", "to": "src", "bandwidth_bps": 10e6, "delay_ms": 2},
	    {"from": "src", "to": "m2", "bandwidth_bps": 10e6, "delay_ms": 2},
	    {"from": "m2", "to": "src", "bandwidth_bps": 10e6, "delay_ms": 2}
	  ],
	  "groups": [{"name": "conf", "members": ["m1", "m2"]}],
	  "sessions": [
	    {"name": "voice", "from": "src", "to": "conf",
	     "acd": {"avg_bps": 192e3, "max_jitter_ms": 10, "loss_tolerance": 0.05},
	     "workload": "generate cbr size=480 interval=20ms count=100",
	     "start_ms": 100}
	  ],
	  "run_ms": 5000
	}`
	res, err := Load([]byte(mc))
	if err != nil {
		t.Fatal(err)
	}
	s := res.Sessions[0]
	if !s.Spec.Multicast {
		t.Fatalf("spec not multicast: %v", s.Spec)
	}
	// The shared meter hears both members: 2 x 100 frames.
	if s.Meter.Messages != 200 {
		t.Fatalf("multicast meter heard %d messages", s.Meter.Messages)
	}
}

func TestParseRejectsBadDocuments(t *testing.T) {
	cases := map[string]string{
		"not json":             `{`,
		"one host":             `{"hosts":["a"],"sessions":[{}]}`,
		"dup host":             `{"hosts":["a","a"],"sessions":[{}]}`,
		"unknown link host":    `{"hosts":["a","b"],"links":[{"from":"a","to":"zz","bandwidth_bps":1}],"sessions":[{}]}`,
		"no bandwidth":         `{"hosts":["a","b"],"links":[{"from":"a","to":"b"}],"sessions":[{}]}`,
		"no sessions":          `{"hosts":["a","b"]}`,
		"group names host":     `{"hosts":["a","b"],"groups":[{"name":"a"}],"sessions":[{}]}`,
		"group unknown member": `{"hosts":["a","b"],"groups":[{"name":"g","members":["zz"]}],"sessions":[{}]}`,
		"session unknown from": oneLink(`{"name":"s","from":"zz","to":"b"}`, ``),
		"session unknown to":   oneLink(`{"name":"s","from":"a","to":"zz"}`, ``),
		// Events: a->b is the only declared link; c is a host without links.
		"cross_traffic unknown host": oneLink(okSession, `{"at_ms":1,"cross_traffic":{"from":"a","to":"zz","rate_bps":1e6}}`),
		"cross_traffic no link":      oneLink(okSession, `{"at_ms":1,"cross_traffic":{"from":"b","to":"a","rate_bps":1e6}}`),
		"link_state no link":         oneLink(okSession, `{"at_ms":1,"link_state":{"from":"a","to":"c","down":true}}`),
		"impair no link":             oneLink(okSession, `{"at_ms":1,"impair":{"from":"c","to":"a","clear":true}}`),
		"route_switch unknown host":  oneLink(okSession, `{"at_ms":1,"route_switch":{"from":"a","to":"zz","link":{"bandwidth_bps":1e6}}}`),
		"route_switch no bandwidth":  oneLink(okSession, `{"at_ms":1,"route_switch":{"from":"a","to":"b","link":{}}}`),
		// A route_switch links its pair from its own instant on, not before,
		// whatever the order the document lists the events in.
		"link_state before the switch that links it": oneLink(okSession,
			`{"at_ms":5,"route_switch":{"from":"a","to":"c","link":{"bandwidth_bps":1e6}}},
			 {"at_ms":4,"link_state":{"from":"a","to":"c","down":true}}`),
	}
	for name, doc := range cases {
		if _, err := Parse([]byte(doc)); err == nil {
			t.Errorf("%s: parsed without error", name)
		}
	}
	accepted := oneLink(okSession,
		`{"at_ms":5,"link_state":{"from":"a","to":"c","down":true}},
		 {"at_ms":5,"route_switch":{"from":"a","to":"c","link":{"bandwidth_bps":1e6}}},
		 {"at_ms":4,"route_switch":{"from":"a","to":"c","link":{"bandwidth_bps":1e6}}}`)
	if _, err := Parse([]byte(accepted)); err != nil {
		t.Errorf("link_state on a pair an earlier route_switch linked: %v", err)
	}
}

const okSession = `{"name":"s","from":"a","to":"b","workload":"generate bulk size=10"}`

// oneLink is a three-host document whose only declared link is a->b.
func oneLink(session, events string) string {
	return fmt.Sprintf(`{"hosts":["a","b","c"],"links":[{"from":"a","to":"b","bandwidth_bps":1e6}],
	  "sessions":[%s],"events":[%s]}`, session, events)
}

// TestFaultFollowsRouteSwitch: a fault event names the link its host pair is
// routed over at that instant. The route moves to a new link at 100 ms and the
// a->b link goes down for good at 200 ms: if the plan had taken down the
// replaced link instead, the transfer would complete.
func TestFaultFollowsRouteSwitch(t *testing.T) {
	const doc = `{
	  "hosts": ["a", "b"],
	  "links": [
	    {"from": "a", "to": "b", "bandwidth_bps": 10e6, "delay_ms": 5},
	    {"from": "b", "to": "a", "bandwidth_bps": 10e6, "delay_ms": 5}
	  ],
	  "sessions": [
	    {"name": "s", "from": "a", "to": "b",
	     "acd": {"avg_bps": 8e6, "ordered": true},
	     "workload": "generate bulk size=1048576 chunk=65536"}
	  ],
	  "events": [
	    {"at_ms": 200, "link_state": {"from": "a", "to": "b", "down": true}},
	    {"at_ms": 100, "route_switch": {"from": "a", "to": "b", "link": {"bandwidth_bps": 10e6, "delay_ms": 5}}}
	  ],
	  "run_ms": 10000
	}`
	res, err := Load([]byte(doc))
	if err != nil {
		t.Fatal(err)
	}
	if got := res.Sessions[0].Meter.Bytes; got == 0 || got >= 1048576 {
		t.Fatalf("delivered %d of 1048576 bytes: the link in use at 200 ms should have gone down mid-transfer", got)
	}
}

func TestDefaultRunDuration(t *testing.T) {
	doc, err := Parse([]byte(`{"hosts":["a","b"],"sessions":[{"name":"s","from":"a","to":"b","workload":"generate bulk size=10"}]}`))
	if err != nil {
		t.Fatal(err)
	}
	if doc.RunMs != 60000 {
		t.Fatalf("default run %v", doc.RunMs)
	}
	_ = time.Second
}

func TestScenarioMigration(t *testing.T) {
	raw, err := os.ReadFile("../../scenarios/migration-handover.json")
	if err != nil {
		t.Fatal(err)
	}
	doc, err := Parse(raw)
	if err != nil {
		t.Fatal(err)
	}
	rt, err := Build(doc)
	if err != nil {
		t.Fatal(err)
	}
	res, err := rt.Run()
	if err != nil {
		t.Fatal(err)
	}
	s := res.Sessions[0]
	// Every CBR frame crosses the migration boundary intact: 3000 x 1024 B.
	if s.Meter.Messages != 3000 || s.Meter.Bytes != 3000*1024 {
		t.Fatalf("delivered %d messages / %d bytes across the handover",
			s.Meter.Messages, s.Meter.Bytes)
	}
	st := rt.Control.Status()
	if st.Migrations != 1 || st.MigrationsFailed != 0 {
		t.Fatalf("controller status %+v", st)
	}
	// The lease moved to the standby host.
	var pl []PlacementCheck
	for _, p := range st.Placements {
		pl = append(pl, PlacementCheck{p.Owner, p.Epoch})
	}
	if len(pl) != 1 || pl[0].Owner != rt.Node("standby").Addr().Host || pl[0].Epoch != 2 {
		t.Fatalf("placements %+v", st.Placements)
	}
}

// PlacementCheck is a test-local projection of one placement row.
type PlacementCheck struct {
	Owner adaptive.HostID
	Epoch uint64
}

// TestMigrateDocRoundTrip re-encodes the migration scenario and parses the
// result: the migrate event must survive a JSON round trip unchanged.
func TestMigrateDocRoundTrip(t *testing.T) {
	raw, err := os.ReadFile("../../scenarios/migration-handover.json")
	if err != nil {
		t.Fatal(err)
	}
	doc, err := Parse(raw)
	if err != nil {
		t.Fatal(err)
	}
	re, err := json.Marshal(doc)
	if err != nil {
		t.Fatal(err)
	}
	doc2, err := Parse(re)
	if err != nil {
		t.Fatalf("re-encoded scenario failed to parse: %v", err)
	}
	if !reflect.DeepEqual(doc, doc2) {
		t.Fatal("scenario document changed across a JSON round trip")
	}
	var found bool
	for _, ev := range doc2.Events {
		if ev.Migrate != nil && ev.Migrate.Session == "handover" && ev.Migrate.To == "standby" {
			found = true
		}
	}
	if !found {
		t.Fatal("migrate event lost in round trip")
	}
}

func TestParseRejectsBadMigrations(t *testing.T) {
	base := `{"hosts":["a","b","c"],
	  "links":[{"from":"a","to":"b","bandwidth_bps":1e6}],
	  "sessions":[{"name":"s","from":"a","to":"b","workload":"generate bulk size=10"}],
	  "events":[%s]}`
	cases := map[string]string{
		"unknown session": `{"at_ms":1,"migrate":{"session":"zz","to":"c"}}`,
		"unknown host":    `{"at_ms":1,"migrate":{"session":"s","to":"zz"}}`,
	}
	for name, ev := range cases {
		if _, err := Parse([]byte(fmt.Sprintf(base, ev))); err == nil {
			t.Errorf("%s: parsed without error", name)
		}
	}
	mc := `{"hosts":["a","b","c"],
	  "links":[{"from":"a","to":"b","bandwidth_bps":1e6}],
	  "groups":[{"name":"g","members":["b","c"]}],
	  "sessions":[{"name":"s","from":"a","to":"g","workload":"generate bulk size=10"}],
	  "events":[{"at_ms":1,"migrate":{"session":"s","to":"c"}}]}`
	if _, err := Parse([]byte(mc)); err == nil || !strings.Contains(err.Error(), "multicast") {
		t.Errorf("multicast migrate: err = %v", err)
	}
}
