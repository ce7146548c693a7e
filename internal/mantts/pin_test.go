package mantts

import (
	"bytes"
	"encoding/binary"
	"encoding/hex"
	"testing"
	"time"

	"adaptive/internal/mechanism"
	"adaptive/internal/netapi"
	"adaptive/internal/netsim"
	"adaptive/internal/session"
	"adaptive/internal/wire"
)

// The encodings below were captured before the codecs moved onto one field
// table. The ACD is experiment T2's descriptor ("full descriptor encodes to
// 234 bytes"); the rule sets every field.

func t2ACD() *ACD {
	cls := TSCInteractiveIsochronous
	return &ACD{
		Participants: []netapi.Addr{{Host: 12, Port: 80}, {Host: 13, Port: 80}},
		RemotePort:   80,
		Quant: QuantQoS{
			PeakThroughputBps: 10e6, AvgThroughputBps: 2e6,
			MaxLatency: 100 * time.Millisecond, MaxJitter: 10 * time.Millisecond,
			LossTolerance: 0.05, Duration: time.Hour,
		},
		Qual: QualQoS{Ordered: true, DupSensitive: true, ConnMgmt: ConnPreferImplicit, Unit: UnitBlock, Priority: 3},
		TSA: []Rule{{
			Cond:   Cond{Metric: MetricRTT, Op: OpGT, Threshold: 0.3},
			Action: Action{Kind: ActSetRecovery, Recovery: mechanism.RecoveryFEC},
		}},
		TMC:   TMC{Metrics: []string{"rel.retransmissions"}, SampleRate: 50 * time.Millisecond},
		Class: &cls,
	}
}

func fullRule() *Rule {
	return &Rule{
		Cond: Cond{Metric: MetricArbiterSqueeze, Op: OpLT, Threshold: 0.125},
		Action: Action{Kind: ActSetWindowKind, Recovery: mechanism.RecoveryFECHybrid, Window: mechanism.WindowAdaptive,
			Size: 64, Factor: 1.5, Note: "hello"},
		Cooldown: 3 * time.Second,
		OneShot:  true,
	}
}

const (
	t2ACDHex    = "000100060000000c0050000100060000000d00500002000200500003000800000000009896800004000800000000001e8480000500080000000005f5e100000600080000000000989680000700080000000002faf080000800080000034630b8a0000009000103000a000102000b000400000003000c000101000d004500010001000002000100000300080000000011e1a3000004000100000500010300060001000007000400000000000800080000000000000000000a00080000000000000000000e001372656c2e72657472616e736d697373696f6e73000f00080000000002faf0800010000100"
	fullRuleHex = "000100010700020001010003000800000000077359400004000103000500010400060001020007000400000040000800080000000059682f000009000568656c6c6f000a000800000000b2d05e00000b000101"
)

func TestACDAndRuleBytesPinned(t *testing.T) {
	enc := EncodeACD(t2ACD())
	if got := hex.EncodeToString(enc); got != t2ACDHex || len(enc) != 234 {
		t.Errorf("EncodeACD(T2) = %s (%d bytes)\nwant %s (234 bytes)", got, len(enc), t2ACDHex)
	}
	raw, _ := hex.DecodeString(t2ACDHex)
	if a, err := DecodeACD(raw); err != nil || !bytes.Equal(EncodeACD(a), raw) {
		t.Errorf("DecodeACD(T2 bytes) = %+v, %v: does not re-encode to them", a, err)
	}
	enc = EncodeRule(fullRule())
	if got := hex.EncodeToString(enc); got != fullRuleHex {
		t.Errorf("EncodeRule = %s\nwant %s", got, fullRuleHex)
	}
	raw, _ = hex.DecodeString(fullRuleHex)
	if r, err := DecodeRule(raw); err != nil || *r != *fullRule() {
		t.Errorf("DecodeRule(pinned) = %+v, %v\nwant %+v", r, err, fullRule())
	}
}

// docType is the value of a TLV document's tag-1 field, the message type of a
// signal (0 when it has none).
func docType(doc []byte) uint8 {
	for len(doc) >= 4 {
		tag, n := binary.BigEndian.Uint16(doc), int(binary.BigEndian.Uint16(doc[2:]))
		if len(doc) < 4+n {
			break
		}
		if tag == 1 && n == 1 {
			return doc[4]
		}
		doc = doc[4+n:]
	}
	return 0
}

// signalTap keeps the payload of every signal PDU its stack sends.
type signalTap struct{ sent [][]byte }

func (w *signalTap) Name() string { return "signaltap" }
func (w *signalTap) Outbound(pkt []byte, _ netapi.Addr) ([]byte, bool) {
	var p wire.PDU
	if wire.DecodeInto(pkt, &p) == nil {
		if p.Type == wire.TSignal {
			w.sent = append(w.sent, append([]byte(nil), p.PayloadBytes()...))
		}
		p.ReleasePayload()
	}
	return pkt, true
}
func (w *signalTap) Inbound(pkt []byte, _ netapi.Addr) ([]byte, bool) { return pkt, true }

// TestSignalBytesPinned drives one multicast session through every signal
// type — invite, the member's join-ack, quality reports, a reconfiguration
// and a leave — and holds the first message of each type to the bytes
// captured before the signal codec moved onto a field table, less the
// sequence number (tag 2) that moved into the channel's PDU header.
func TestSignalBytesPinned(t *testing.T) {
	r := newRig(t, 3, netsim.LinkConfig{Bandwidth: 10e6, PropDelay: time.Millisecond, MTU: 1500})
	tap := &signalTap{}
	for _, st := range r.stacks {
		st.InsertLayer(tap)
	}
	group := r.net.NewGroup()
	r.net.Join(group, r.hosts[1].ID())
	r.ents[1].OnMulticastAccept = func(s *session.Session, _ netapi.HostID) {
		s.SetReceiver(func(d session.Delivery) { d.Msg.Release() })
	}
	acd := &ACD{
		Participants: []netapi.Addr{{Host: group, Port: r.addr(0).Port}, r.addr(1)},
		RemotePort:   80,
		Quant:        QuantQoS{AvgThroughputBps: 1e6, LossTolerance: 0.05, MaxJitter: 10 * time.Millisecond},
	}
	m, err := r.ents[0].OpenSessionWith(acd, OpenOptions{LocalPort: 80})
	if err != nil {
		t.Fatal(err)
	}
	r.k.RunUntil(200 * time.Millisecond)
	m.Session.Send(bytes.Repeat([]byte("m"), 10*1024))
	r.k.RunUntil(time.Second)
	if err := r.ents[0].Reconfigure(m, func(s *mechanism.Spec) { s.RateBps /= 2 }); err != nil {
		t.Fatal(err)
	}
	r.k.RunUntil(1200 * time.Millisecond)
	if err := r.ents[0].RemoveParticipant(m, r.hosts[1].ID()); err != nil {
		t.Fatal(err)
	}
	r.k.RunUntil(1400 * time.Millisecond)

	want := map[uint8]string{
		sigReconfig:   "0001000101000300040d8f8adb000400b200010001000002000103000300010000040001000005000100000600040000002b000700040000001000080008000000000008647000090004000005be000a0004000000ac000b00080000000005f5e100000c000800000000047868c0000d000800000002540be400000e00080000000001312d00000f0001060010000400000000001100080000000000000000001200080000000000000000001300080000000000000000001400080000000000000000",
		sigJoinInvite: "0001000102000300040d8f8adb000400b200010001000002000103000300010000040001000005000100000600040000002b000700040000001000080008000000000010c8e000090004000005be000a0004000000ac000b00080000000005f5e100000c000800000000047868c0000d000800000002540be400000e00080000000001312d00000f00010600100004000000000011000800000000000000000012000800000000000000000013000800000000000000000014000800000000000000000005000480000004000600020050",
		sigJoinAck:    "0001000103000300040d8f8adb",
		sigLeave:      "0001000104000300040d8f8adb",
		sigQualReport: "0001000106000300040d8f8adb000700080000000000000000",
	}
	for typ, pinned := range want {
		var got []byte
		for _, doc := range tap.sent {
			if docType(doc) == typ {
				got = doc
				break
			}
		}
		if hex.EncodeToString(got) != pinned {
			t.Errorf("signal type %d: first sent %x (%d bytes)\nwant %s", typ, got, len(got), pinned)
		}
	}
}
