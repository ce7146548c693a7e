package main

import (
	"encoding/json"
	"os"
	"sort"
	"strings"
	"testing"

	"adaptive/bench/tap"
	"adaptive/internal/netapi"
	"adaptive/internal/netsim"
	"adaptive/internal/sim"
)

// The self-test keeps the benchmark honest about its own contract: every
// workload, at about 1/100 scale, prints exactly the metrics BENCHMARK.json
// declares; the tap's spans are well formed and free on the packet path; and
// a damaged delivery does fail the output check.

const (
	testScale   = 0.01
	testSeconds = 0.2
)

type benchmarkFile struct {
	Paths     []string `json:"paths"`
	Workloads []struct {
		Name, Why string
	} `json:"workloads"`
	EndToEnd []struct {
		Name, Unit, Better string
		Bound              float64
	} `json:"end_to_end"`
	PerLayer []struct {
		Name, Unit, Better string
	} `json:"per_layer"`
}

func readBenchmarkFile(t *testing.T) benchmarkFile {
	t.Helper()
	raw, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	var b benchmarkFile
	if err := json.Unmarshal(raw, &b); err != nil {
		t.Fatal(err)
	}
	return b
}

func namesAndUnits(m map[string]metricValue) []string {
	out := make([]string, 0, len(m))
	for k, v := range m {
		out = append(out, k+" ["+v.Unit+"]")
	}
	sort.Strings(out)
	return out
}

func TestWorkloadsEmitDeclaredMetrics(t *testing.T) {
	if err := prepareProcess(); err != nil {
		t.Fatal(err)
	}
	decl := readBenchmarkFile(t)
	var wantE2E, wantLayer []string
	for _, m := range decl.EndToEnd {
		wantE2E = append(wantE2E, m.Name+" ["+m.Unit+"]")
		if m.Bound <= 0 || m.Bound > 0.25 {
			t.Errorf("%s: bound %v outside (0, 0.25]", m.Name, m.Bound)
		}
	}
	for _, m := range decl.PerLayer {
		wantLayer = append(wantLayer, m.Name+" ["+m.Unit+"]")
	}
	sort.Strings(wantE2E)
	sort.Strings(wantLayer)
	if len(decl.Workloads) != len(workloads) {
		t.Fatalf("BENCHMARK.json names %d workloads, the benchmark has %d", len(decl.Workloads), len(workloads))
	}
	for _, dw := range decl.Workloads {
		w := workloadByName(dw.Name)
		if w == nil {
			t.Fatalf("BENCHMARK.json names unknown workload %q", dw.Name)
		}
		t.Run(w.name, func(t *testing.T) {
			for _, traced := range []bool{false, true} {
				res, err := runOne(w, 12, testSeconds, testScale, traced, "")
				if err != nil {
					t.Fatal(err)
				}
				want := wantE2E
				if traced {
					want = wantLayer
				}
				if got := namesAndUnits(res.Driver.Metrics); strings.Join(got, "\n") != strings.Join(want, "\n") {
					t.Errorf("traced=%v: metrics differ from BENCHMARK.json\n got: %v\nwant: %v", traced, got, want)
				}
				if !res.Driver.Correct || res.Driver.Failed != 0 || res.Driver.Attempted == 0 {
					t.Errorf("traced=%v: correct=%v attempted=%d failed=%d: %v", traced,
						res.Driver.Correct, res.Driver.Attempted, res.Driver.Failed, res.Problems)
				}
				if !traced {
					for name, v := range res.Driver.Metrics {
						if !(v.Value > 0) {
							t.Errorf("end-to-end metric %s = %v, must never be 0", name, v.Value)
						}
					}
				}
			}
		})
	}
}

// tapRig puts the tap over a two-host netsim network with a bare receiver on
// each side: enough to drive every tap path without a stack.
func tapRig(t *testing.T, rec *tap.Recorder) (k *sim.Kernel, src netapi.Endpoint, dst netapi.Addr, clock netapi.Clock) {
	t.Helper()
	k = sim.NewKernel(1)
	net := netsim.New(k)
	a, b := net.AddHost(), net.AddHost()
	net.SetRoute(a.ID(), b.ID(), net.NewLink(soakLink))
	p := tap.Wrap(net, rec)
	src, err := p.Open(a.ID(), 10)
	if err != nil {
		t.Fatal(err)
	}
	sink, err := p.Open(b.ID(), 20)
	if err != nil {
		t.Fatal(err)
	}
	sink.SetReceiver(func(pkt []byte, _ netapi.Addr) {
		// An application callback nested inside the upcall.
		rec.Begin(tap.AppDeliver, 0)
		rec.End(1)
	})
	return k, src, sink.LocalAddr(), p.Clock()
}

func TestTapSpansNest(t *testing.T) {
	rec := tap.NewRecorder(tap.Options{RawSpans: 1 << 12, Frames: 64})
	k, src, dst, clock := tapRig(t, rec)
	pkt := make([]byte, 200)
	pkt[0] = 1<<4 | 1 // version 1, DATA
	clock.AfterFunc(0, func() {
		rec.Begin(tap.AppSend, 7)
		src.Send(pkt, dst)
		src.Send(pkt, dst)
		rec.End(1)
	})
	rec.Begin(tap.SimRun, 0)
	k.Run()
	rec.End(0)

	if rec.Malformed() != 0 || rec.OpenSpans() != 0 {
		t.Fatalf("malformed=%d open=%d", rec.Malformed(), rec.OpenSpans())
	}
	a := rec.Aggs()
	if got, want := a.SelfTotal(), rec.RootTotal(); got != want {
		t.Errorf("Σ self = %d, root duration = %d", got, want)
	}
	counts := map[string]uint64{}
	byID := map[int64]tap.Span{}
	for _, s := range rec.Spans() {
		counts[s.Name]++
		byID[s.ID] = s
	}
	want := map[string]uint64{"sim.run": 1, "stack.timer": 1, "app.send": 1, "provider.send": 2, "stack.rx": 2, "app.deliver": 2}
	for name, n := range want {
		if counts[name] != n {
			t.Errorf("%s: %d spans, want %d", name, counts[name], n)
		}
	}
	for _, s := range rec.Spans() {
		if s.End < s.Start {
			t.Errorf("span %d ends before it starts", s.ID)
		}
		if s.Parent < 0 {
			continue
		}
		p, ok := byID[s.Parent]
		if !ok || s.Start < p.Start || s.End > p.End {
			t.Errorf("span %d (%s) is not inside its parent %d", s.ID, s.Name, s.Parent)
		}
	}
	if f := rec.Frames(); len(f) != 2 || f[0].Type != 1 || f[0].Size != 200 {
		t.Errorf("frame log = %+v", f)
	}
}

func TestTapAddsNoAllocsPerPacket(t *testing.T) {
	measure := func(rec *tap.Recorder) float64 {
		k := sim.NewKernel(1)
		net := netsim.New(k)
		a, b := net.AddHost(), net.AddHost()
		net.SetRoute(a.ID(), b.ID(), net.NewLink(soakLink))
		var p netapi.Provider = net
		if rec != nil {
			p = tap.Wrap(net, rec)
		}
		src, _ := p.Open(a.ID(), 10)
		sink, _ := p.Open(b.ID(), 20)
		got := 0
		sink.SetReceiver(func([]byte, netapi.Addr) { got++ })
		pkt := make([]byte, 1400)
		pkt[0] = 1<<4 | 1
		dst := sink.LocalAddr()
		step := func() {
			for i := 0; i < 64; i++ {
				src.Send(pkt, dst)
			}
			k.RunFor(soakLink.PropDelay * 4)
		}
		step() // warm the pools
		return testing.AllocsPerRun(50, step) / 64
	}
	bare := measure(nil)
	tapped := measure(tap.NewRecorder(tap.Options{RawSpans: 16, Frames: 16}))
	if tapped-bare > 0.01 {
		t.Errorf("tap adds %.3f allocs/pkt (bare %.3f, tapped %.3f)", tapped-bare, bare, tapped)
	}
}

func TestDamagedDeliveryFailsTheCheck(t *testing.T) {
	if err := prepareProcess(); err != nil {
		t.Fatal(err)
	}
	r, err := setupSimSoak(12, nil, testScale)
	if err != nil {
		t.Fatal(err)
	}
	defer r.close()
	rig := r.(*simRig)
	// Damage what the reliable receivers have seen so far: every later
	// end-of-message comparison on those streams must fail.
	for _, st := range rig.streams {
		st.rxCRC ^= 1
	}
	m, err := rig.measure(0)
	if err != nil {
		t.Fatal(err)
	}
	if m.failed == 0 || len(m.problems) == 0 {
		t.Fatalf("damaged stream passed the output check: failed=%d problems=%v", m.failed, m.problems)
	}
	res := &result{}
	finish(res, m, endToEnd, map[string]float64{})
	if res.Driver.Correct || res.Driver.Failed == 0 {
		t.Errorf("driver line says correct=%v failed=%d", res.Driver.Correct, res.Driver.Failed)
	}
	if share := ratio(float64(m.failed), float64(m.attempted)); !(share > 0) {
		t.Errorf("fail_share = %v", share)
	}

	// The live check sees a damaged segment too.
	b := &bulkRig{src: make([]byte, bulkSrc), exp: make([]byte, bulkSrc), sentAt: nil}
	seg := make([]byte, 1000)
	seg[10] = 0xff
	b.onData(seg, false)
	if b.mismatch != 1 {
		t.Errorf("live_bulk accepted a damaged segment")
	}
}
