package measure

import (
	"strings"
	"testing"
	"time"

	"adaptive/internal/event"
	"adaptive/internal/netsim"
	"adaptive/internal/sim"
)

func TestParseCollect(t *testing.T) {
	s, err := Parse("collect rel.retransmissions, app.* every 50ms")
	if err != nil {
		t.Fatal(err)
	}
	if len(s.TMC.Metrics) != 2 || s.TMC.Metrics[0] != "rel.retransmissions" || s.TMC.Metrics[1] != "app." {
		t.Fatalf("metrics %v", s.TMC.Metrics)
	}
	if s.TMC.SampleRate != 50*time.Millisecond {
		t.Fatalf("sample rate %v", s.TMC.SampleRate)
	}
}

func TestParseCollectNoEvery(t *testing.T) {
	s, err := Parse("collect session.segues")
	if err != nil {
		t.Fatal(err)
	}
	if s.TMC.SampleRate != 0 || len(s.TMC.Metrics) != 1 {
		t.Fatalf("%+v", s.TMC)
	}
}

func TestParseGenerateCBR(t *testing.T) {
	s, err := Parse("generate cbr size=160 interval=20ms count=500")
	if err != nil {
		t.Fatal(err)
	}
	w := s.Workload
	if w.Kind != WorkloadCBR || w.Size != 160 || w.Interval != 20*time.Millisecond || w.Count != 500 {
		t.Fatalf("%+v", w)
	}
}

func TestParseGenerateVBRDefaults(t *testing.T) {
	s, err := Parse("generate vbr rate=30 mean=8000 burst=4")
	if err != nil {
		t.Fatal(err)
	}
	if s.Workload.GOP != 12 {
		t.Fatalf("default GOP %d", s.Workload.GOP)
	}
}

func TestParseMultiStatement(t *testing.T) {
	s, err := Parse(`
		collect rel., app.delivered_bytes every 100ms;
		generate bulk size=1048576 chunk=65536
	`)
	if err != nil {
		t.Fatal(err)
	}
	if s.Workload.Kind != WorkloadBulk || s.Workload.Size != 1<<20 || s.Workload.Chunk != 1<<16 {
		t.Fatalf("%+v", s.Workload)
	}
	if len(s.TMC.Metrics) != 2 {
		t.Fatalf("%v", s.TMC.Metrics)
	}
}

func TestParseErrors(t *testing.T) {
	for _, bad := range []string{
		"collect",                           // no metrics
		"collect x every nope",              // bad duration
		"collect x every -5ms",              // negative
		"transmit cbr",                      // unknown statement
		"generate warp size=1",              // unknown workload
		"generate cbr size",                 // malformed kv
		"generate cbr size=abc interval=1s", // bad value
		"generate cbr bogus=1",              // unknown key
		"generate cbr",                      // missing required params
		"generate keystroke",                // missing gap
		"generate",                          // bare
	} {
		if _, err := Parse(bad); err == nil {
			t.Errorf("%q parsed without error", bad)
		}
	}
}

func TestBuildAndRunCBR(t *testing.T) {
	s, err := Parse("generate cbr size=32 interval=5ms count=10")
	if err != nil {
		t.Fatal(err)
	}
	k := sim.NewKernel(1)
	n := netsim.New(k)
	timers := event.NewManager(n.Clock())
	var sent int
	start, generated, err := s.Workload.Build(timers, senderFunc(func(b []byte) error {
		sent += len(b)
		return nil
	}))
	if err != nil {
		t.Fatal(err)
	}
	start()
	k.RunUntil(time.Second)
	if generated() != 10 || sent != 320 {
		t.Fatalf("generated %d sent %d", generated(), sent)
	}
}

func TestBuildBulk(t *testing.T) {
	s, _ := Parse("generate bulk size=1000 chunk=300")
	k := sim.NewKernel(1)
	n := netsim.New(k)
	timers := event.NewManager(n.Clock())
	count := 0
	start, generated, err := s.Workload.Build(timers, senderFunc(func(b []byte) error { count++; return nil }))
	if err != nil {
		t.Fatal(err)
	}
	start()
	if generated() != 4 || count != 4 {
		t.Fatalf("chunks %d/%d", generated(), count)
	}
}

func TestBuildReqRespRefused(t *testing.T) {
	s, _ := Parse("generate reqresp size=100 think=5ms count=10")
	k := sim.NewKernel(1)
	n := netsim.New(k)
	if _, _, err := s.Workload.Build(event.NewManager(n.Clock()), senderFunc(func([]byte) error { return nil })); err == nil {
		t.Fatal("reqresp Build should direct users to the workload package")
	}
}

func TestKindStrings(t *testing.T) {
	for k, want := range map[WorkloadKind]string{
		WorkloadNone: "none", WorkloadCBR: "cbr", WorkloadVBR: "vbr",
		WorkloadBulk: "bulk", WorkloadKeystroke: "keystroke", WorkloadReqResp: "reqresp",
	} {
		if k.String() != want {
			t.Fatalf("%v", k)
		}
	}
	if !strings.Contains(WorkloadKind(42).String(), "42") {
		t.Fatal("unknown kind unprintable")
	}
}

type senderFunc func([]byte) error

func (f senderFunc) Send(b []byte) error { return f(b) }

// TestParseTraceErrors: the language has no trace statement. Recording is
// requested through adaptivetrace or Observe.TraceBuffer.
func TestParseTraceErrors(t *testing.T) {
	for _, input := range []string{
		"trace",
		"trace spans sample=1/16 buffer=64k",
		"trace sample=1/12",
		"collect rel. every 100ms; trace buffer=1m; generate bulk size=4096",
	} {
		if _, err := Parse(input); err == nil || !strings.Contains(err.Error(), "unknown statement") {
			t.Errorf("Parse(%q) error = %v, want an unknown-statement error", input, err)
		}
	}
}
