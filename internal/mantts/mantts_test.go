package mantts

import (
	"strings"
	"testing"
	"time"

	"adaptive/internal/mechanism"
	"adaptive/internal/netapi"
	"adaptive/internal/wire"
)

func TestTable1HasNineRows(t *testing.T) {
	if len(Table1) != 9 {
		t.Fatalf("Table 1 has %d rows, paper has 9", len(Table1))
	}
	r := RenderTable1()
	for _, app := range []string{"Voice Conversation", "Tele-Conferencing", "Full-Motion Video (comp)",
		"Full-Motion Video (raw)", "Manufacturing Control", "File Transfer", "TELNET",
		"On-Line Transaction Processing", "Remote File Service"} {
		if !strings.Contains(r, app) {
			t.Fatalf("rendered Table 1 missing %q", app)
		}
	}
	if Profile("voice conversation") == nil {
		t.Fatal("Profile lookup is not case-insensitive")
	}
	if Profile("nonexistent") != nil {
		t.Fatal("Profile invented a row")
	}
}

func TestClassifyMatchesTable1Classes(t *testing.T) {
	for _, row := range Table1 {
		acd := ACDForProfile(&row)
		acd.Class = nil // force classification from QoS, not the hint
		if row.Multicast {
			acd.Participants = []netapi.Addr{{Host: netapi.MulticastBit | 9}, {Host: 2}, {Host: 3}}
		} else {
			acd.Participants = []netapi.Addr{{Host: 2}}
		}
		got := Classify(acd)
		if got != row.Class {
			t.Errorf("%s: classified %v, Table 1 says %v", row.Application, got, row.Class)
		}
	}
}

func TestClassifyHonorsExplicitClass(t *testing.T) {
	c := TSCRealTimeNonIsochronous
	acd := &ACD{Participants: []netapi.Addr{{Host: 1}}, Class: &c}
	if Classify(acd) != c {
		t.Fatal("explicit TSC ignored")
	}
}

func TestACDCodecRoundTrip(t *testing.T) {
	cls := TSCInteractiveIsochronous
	a := &ACD{
		Participants: []netapi.Addr{{Host: 3, Port: 80}, {Host: 9, Port: 81}},
		RemotePort:   443,
		Quant: QuantQoS{
			PeakThroughputBps: 2e6, AvgThroughputBps: 1e6,
			MaxLatency: 100 * time.Millisecond, MaxJitter: 10 * time.Millisecond,
			LossTolerance: 0.05, Duration: 30 * time.Minute,
		},
		Qual: QualQoS{Ordered: true, DupSensitive: true, ConnMgmt: ConnPreferImplicit, Unit: UnitBlock, Priority: 2},
		TSA: []Rule{{
			Cond:     Cond{Metric: MetricRTT, Op: OpGT, Threshold: 0.25},
			Action:   Action{Kind: ActSetRecovery, Recovery: mechanism.RecoveryFEC},
			Cooldown: 2 * time.Second,
			OneShot:  true,
		}},
		TMC:   TMC{Metrics: []string{"rel.retransmissions", "app.delivered_bytes"}, SampleRate: 25 * time.Millisecond},
		Class: &cls,
	}
	got, err := DecodeACD(EncodeACD(a))
	if err != nil {
		t.Fatal(err)
	}
	if len(got.Participants) != 2 || got.Participants[1] != (netapi.Addr{Host: 9, Port: 81}) {
		t.Fatalf("participants: %v", got.Participants)
	}
	if got.RemotePort != 443 || got.Quant != a.Quant {
		t.Fatalf("quant mismatch: %+v", got.Quant)
	}
	if got.Qual != a.Qual {
		t.Fatalf("qual mismatch: %+v", got.Qual)
	}
	if len(got.TSA) != 1 || got.TSA[0].Cond != a.TSA[0].Cond ||
		got.TSA[0].Action.Kind != ActSetRecovery || got.TSA[0].Action.Recovery != mechanism.RecoveryFEC ||
		got.TSA[0].Cooldown != 2*time.Second || !got.TSA[0].OneShot {
		t.Fatalf("TSA mismatch: %+v", got.TSA)
	}
	if len(got.TMC.Metrics) != 2 || got.TMC.SampleRate != 25*time.Millisecond {
		t.Fatalf("TMC mismatch: %+v", got.TMC)
	}
	if got.Class == nil || *got.Class != cls {
		t.Fatalf("class mismatch: %v", got.Class)
	}
}

func TestACDValidate(t *testing.T) {
	if err := (&ACD{}).Validate(); err == nil {
		t.Fatal("empty ACD validated")
	}
	bad := &ACD{Participants: []netapi.Addr{{Host: 1}}, Quant: QuantQoS{LossTolerance: 1.5}}
	if err := bad.Validate(); err == nil {
		t.Fatal("loss tolerance 1.5 validated")
	}
	badRule := &ACD{
		Participants: []netapi.Addr{{Host: 1}},
		TSA:          []Rule{{Action: Action{Kind: ActScaleRate, Factor: 0}}},
	}
	if err := badRule.Validate(); err == nil {
		t.Fatal("zero-factor rule validated")
	}
}

func TestDeriveSCSVoiceIsLightweight(t *testing.T) {
	p := Profile("Voice Conversation")
	acd := ACDForProfile(p)
	acd.Participants = []netapi.Addr{{Host: 2}}
	spec := DeriveSCS(Classify(acd), acd, PathState{RTT: 5 * time.Millisecond, MTU: 1500, Bandwidth: 10e6})
	if spec.Recovery == mechanism.RecoveryGoBackN || spec.Recovery == mechanism.RecoverySelectiveRepeat {
		t.Fatalf("voice got retransmission-based recovery %v (overweight)", spec.Recovery)
	}
	if spec.RateBps == 0 {
		t.Fatal("isochronous voice not rate-paced")
	}
	if spec.Checksum != wire.CkNone {
		t.Fatalf("loss-tolerant voice pays for checksum %v", spec.Checksum)
	}
	if spec.Graceful {
		t.Fatal("loss-tolerant flow got graceful close semantics")
	}
}

func TestDeriveSCSFileTransferIsReliable(t *testing.T) {
	p := Profile("File Transfer")
	acd := ACDForProfile(p)
	acd.Participants = []netapi.Addr{{Host: 2}}
	spec := DeriveSCS(Classify(acd), acd, PathState{RTT: 20 * time.Millisecond, MTU: 1500, Bandwidth: 10e6})
	if spec.Recovery != mechanism.RecoverySelectiveRepeat {
		t.Fatalf("file transfer recovery = %v", spec.Recovery)
	}
	if spec.Order != mechanism.OrderSequenced {
		t.Fatal("file transfer not sequenced")
	}
	if !spec.Graceful {
		t.Fatal("reliable transfer without graceful close")
	}
}

func TestDeriveSCSSatellitePathAvoidsARQ(t *testing.T) {
	acd := &ACD{
		Participants: []netapi.Addr{{Host: 2}},
		Quant:        QuantQoS{MaxLatency: 200 * time.Millisecond, LossTolerance: 0, AvgThroughputBps: 5e6},
		Qual:         QualQoS{Ordered: true},
	}
	spec := DeriveSCS(Classify(acd), acd, PathState{RTT: 550 * time.Millisecond, MTU: 1500})
	if spec.Recovery != mechanism.RecoveryFECHybrid {
		t.Fatalf("satellite-delay reliable flow got %v, want fec-hybrid", spec.Recovery)
	}
}

func TestDeriveSCSCongestionPicksGoBackN(t *testing.T) {
	acd := &ACD{
		Participants: []netapi.Addr{{Host: 2}},
		Quant:        QuantQoS{AvgThroughputBps: 5e6},
		Qual:         QualQoS{Ordered: true},
	}
	spec := DeriveSCS(TSCNonRealTimeNonIsochronous, acd, PathState{RTT: 20 * time.Millisecond, MTU: 1500, Congestion: 0.9})
	if spec.Recovery != mechanism.RecoveryGoBackN {
		t.Fatalf("congested path got %v, want go-back-n", spec.Recovery)
	}
	if spec.Window != mechanism.WindowAdaptive {
		t.Fatalf("congested path window = %v, want adaptive", spec.Window)
	}
}

func TestDeriveSCSMulticastNeverARQ(t *testing.T) {
	group := netapi.Addr{Host: netapi.MulticastBit | 7}
	acd := &ACD{
		Participants: []netapi.Addr{group, {Host: 2}, {Host: 3}},
		Quant:        QuantQoS{AvgThroughputBps: 2e6, LossTolerance: 0.02, MaxJitter: 10 * time.Millisecond},
	}
	spec := DeriveSCS(Classify(acd), acd, PathState{RTT: 10 * time.Millisecond, MTU: 1500})
	if spec.Recovery == mechanism.RecoveryGoBackN || spec.Recovery == mechanism.RecoverySelectiveRepeat || spec.Recovery == mechanism.RecoveryFECHybrid {
		t.Fatalf("multicast got ack-based recovery %v", spec.Recovery)
	}
	if !spec.Multicast {
		t.Fatal("spec not marked multicast")
	}
}

func TestDeriveSCSWindowScalesWithBDP(t *testing.T) {
	acd := &ACD{Participants: []netapi.Addr{{Host: 2}}, Quant: QuantQoS{PeakThroughputBps: 100e6}, Qual: QualQoS{Ordered: true}}
	lan := DeriveSCS(TSCNonRealTimeNonIsochronous, acd, PathState{RTT: time.Millisecond, MTU: 1500})
	wan := DeriveSCS(TSCNonRealTimeNonIsochronous, acd, PathState{RTT: 100 * time.Millisecond, MTU: 1500})
	if wan.WindowSize <= lan.WindowSize {
		t.Fatalf("window did not grow with RTT: lan=%d wan=%d", lan.WindowSize, wan.WindowSize)
	}
}

func TestDeriveSCSShortSessionImplicit(t *testing.T) {
	acd := &ACD{
		Participants: []netapi.Addr{{Host: 2}},
		Quant:        QuantQoS{Duration: 100 * time.Millisecond, AvgThroughputBps: 1e6},
	}
	spec := DeriveSCS(TSCNonRealTimeNonIsochronous, acd, PathState{RTT: 10 * time.Millisecond, MTU: 1500})
	if spec.ConnMgmt != mechanism.ConnImplicit {
		t.Fatalf("short session got %v", spec.ConnMgmt)
	}
}

func TestEngineCooldownAndOneShot(t *testing.T) {
	rules := []Rule{
		{Cond: Cond{Metric: MetricRTT, Op: OpGT, Threshold: 0.1}, Action: Action{Kind: ActScaleRate, Factor: 0.5}, Cooldown: time.Second},
		{Cond: Cond{Metric: MetricLossRate, Op: OpGT, Threshold: 0.01}, Action: Action{Kind: ActSetRecovery, Recovery: mechanism.RecoveryGoBackN}, OneShot: true},
	}
	e := NewEngine(rules)
	hot := map[MetricID]float64{MetricRTT: 0.5, MetricLossRate: 0.5}
	if got := e.Evaluate(time.Second, hot); len(got) != 2 {
		t.Fatalf("first evaluation fired %d actions", len(got))
	}
	// Within cooldown: nothing fires (rule 2 is spent).
	if got := e.Evaluate(1500*time.Millisecond, hot); len(got) != 0 {
		t.Fatalf("cooldown violated: %v", got)
	}
	// After cooldown, only the repeatable rule fires.
	if got := e.Evaluate(3*time.Second, hot); len(got) != 1 || got[0].Kind != ActScaleRate {
		t.Fatalf("post-cooldown: %v", got)
	}
	if e.Fired != 3 {
		t.Fatalf("Fired = %d", e.Fired)
	}
}

func TestEngineMissingMetricDoesNotFire(t *testing.T) {
	e := NewEngine([]Rule{{Cond: Cond{Metric: MetricCongestion, Op: OpGT, Threshold: 0.5}, Action: Action{Kind: ActNotifyApp}}})
	if got := e.Evaluate(time.Second, map[MetricID]float64{}); len(got) != 0 {
		t.Fatalf("fired on missing metric: %v", got)
	}
}

func TestEngineRulesAreNotAliased(t *testing.T) {
	rules := []Rule{
		{Cond: Cond{Metric: MetricRTT, Op: OpGT, Threshold: 0.1}, Action: Action{Kind: ActScaleRate, Factor: 0.5}},
	}
	e := NewEngine(rules)

	// Mutating the caller's original slice after construction must not
	// rewrite live policy: raise its threshold out of reach.
	rules[0].Cond.Threshold = 1e9
	hot := map[MetricID]float64{MetricRTT: 0.5}
	if got := e.Evaluate(time.Second, hot); len(got) != 1 {
		t.Fatalf("engine aliases the constructor slice: fired %d actions", len(got))
	}

	// Mutating the slice Rules() returns must not change behavior either.
	snap := e.Rules()
	snap[0].Cond.Threshold = 1e9
	snap[0].Action.Factor = 99
	if got := e.Evaluate(3*time.Second, hot); len(got) != 1 || got[0].Factor != 0.5 {
		t.Fatalf("engine aliases the Rules() snapshot: %v", got)
	}
}

func TestCondOps(t *testing.T) {
	v := map[MetricID]float64{MetricRTT: 0.2}
	if !(Cond{MetricRTT, OpGT, 0.1}).Holds(v) || (Cond{MetricRTT, OpGT, 0.3}).Holds(v) {
		t.Fatal("OpGT broken")
	}
	if !(Cond{MetricRTT, OpLT, 0.3}).Holds(v) || (Cond{MetricRTT, OpLT, 0.1}).Holds(v) {
		t.Fatal("OpLT broken")
	}
}

func TestNetStateRTTConvergence(t *testing.T) {
	ns := NewNetState()
	for i := 0; i < 50; i++ {
		ns.ObserveRTT(5, 100*time.Millisecond)
	}
	p := ns.Path(5)
	if p.RTT < 90*time.Millisecond || p.RTT > 110*time.Millisecond {
		t.Fatalf("RTT estimate %v after 50 consistent samples", p.RTT)
	}
	if p.ProbesEchoed != 50 {
		t.Fatalf("ProbesEchoed = %d", p.ProbesEchoed)
	}
}

func TestNetStateCongestionTracksLoss(t *testing.T) {
	ns := NewNetState()
	for i := 0; i < 10; i++ {
		ns.ObserveLoss(5, 0.1)
	}
	if c := ns.Path(5).Congestion; c < 0.4 {
		t.Fatalf("congestion %v after sustained loss", c)
	}
	for i := 0; i < 10; i++ {
		ns.ObserveLoss(5, 0)
	}
	if c := ns.Path(5).Congestion; c > 0.1 {
		t.Fatalf("congestion %v after recovery", c)
	}
}

func TestSeedPathState(t *testing.T) {
	ns := NewNetState()
	ns.Seed(7, StaticPathInfo{Bandwidth: 155e6, RTT: 2 * time.Millisecond, BER: 1e-9, MTU: 9180})
	p := ns.Path(7)
	if p.Bandwidth != 155e6 || p.MTU != 9180 || p.BER != 1e-9 {
		t.Fatalf("seeded path: %+v", p)
	}
}

func TestRuleCodecRoundTrip(t *testing.T) {
	r := &Rule{
		Cond:     Cond{Metric: MetricCongestion, Op: OpLT, Threshold: 0.125},
		Action:   Action{Kind: ActSetWindowKind, Window: mechanism.WindowAdaptive, Size: 64, Factor: 1.5, Note: "hello"},
		Cooldown: 3 * time.Second,
		OneShot:  true,
	}
	got, err := DecodeRule(EncodeRule(r))
	if err != nil {
		t.Fatal(err)
	}
	if got.Cond != r.Cond || got.Action != r.Action || got.Cooldown != r.Cooldown || got.OneShot != r.OneShot {
		t.Fatalf("round trip: %+v vs %+v", got, r)
	}
}

// TestKindNamesParseBack: every mechanism kind and every metric has a name,
// and the Parse function beside its String returns it from that name.
func TestKindNamesParseBack(t *testing.T) {
	type kind struct {
		name  string
		back  int
		err   error
		value int
	}
	var got []kind
	for k := mechanism.ConnImplicit; k <= mechanism.ConnExplicit3Way; k++ {
		b, err := mechanism.ParseConnKind(k.String())
		got = append(got, kind{k.String(), int(b), err, int(k)})
	}
	for k := mechanism.RecoveryNone; k <= mechanism.RecoveryFECHybrid; k++ {
		b, err := mechanism.ParseRecoveryKind(k.String())
		got = append(got, kind{k.String(), int(b), err, int(k)})
	}
	for k := mechanism.OrderNone; k <= mechanism.OrderSequenced; k++ {
		b, err := mechanism.ParseOrderKind(k.String())
		got = append(got, kind{k.String(), int(b), err, int(k)})
	}
	for m := MetricRTT; m <= MetricArbiterSqueeze; m++ {
		b, err := ParseMetricID(m.String())
		got = append(got, kind{m.String(), int(b), err, int(m)})
	}
	for _, g := range got {
		if g.err != nil || g.back != g.value || strings.Contains(g.name, "(") {
			t.Errorf("kind %d is named %q and parses back as %d, %v", g.value, g.name, g.back, g.err)
		}
	}
	if _, err := mechanism.ParseRecoveryKind("gbn"); err == nil {
		t.Error("ParseRecoveryKind accepted adaptivesim's flag alias")
	}
	if _, err := ParseMetricID("no-such-metric"); err == nil {
		t.Error("ParseMetricID accepted an unknown name")
	}
}
