package controlplane

import (
	"encoding/binary"
	"encoding/hex"
	"reflect"
	"testing"
	"time"

	"adaptive/internal/mechanism"
	"adaptive/internal/netapi"
	"adaptive/internal/netsim"
	"adaptive/internal/protograph"
	"adaptive/internal/session"
	"adaptive/internal/sim"
	"adaptive/internal/wire"
)

// The encodings below were captured before the codecs moved onto one field
// table: the sample hand-off record, and the first message of each
// control-plane type from one migration.

const sampleRecordHex = "00010008000000000000002a00020004deadbeef0003000203e80004000207d00005000400000007000600020009000700b200010001010002000102000300010000040001010005000102000600040000002000070004000000080008000800000000000000000009000400000578000a000400000100000b0008000000000bebc200000c00080000000000989680000d000800000002540be400000e00080000000002faf080000f000101001000040000000000110008000000000000000000120008000000000000000000130008000000000000000000140008000000000000000000080004000000640009000400000069000a000400000032000b000400000100000c000800000000002dc6c0000d0008000000000007a120000e00080000000001312d00000f000800000000000000040010000800000000000000020011000800000000000000010012000800000000000001f4001300080000000000061a8000140008000000000000012c001500080000000000030d40001600080000000000000078001700080000000000030d3f0018000800000000000000030019000400000040001a0012000000640100027061796c6f61642d313030001a0012000000670000007061796c6f61642d313033001a000700000068030000001b000d000000340000097263762d3532001c0009007175657565642d61001c0009017175657565642d62"

func TestRecordBytesPinned(t *testing.T) {
	h := sampleHandoff()
	enc := EncodeRecord(42, h)
	if got := hex.EncodeToString(enc); got != sampleRecordHex {
		t.Errorf("EncodeRecord = %s (%d bytes)\nwant %s", got, len(enc), sampleRecordHex)
	}
	raw, _ := hex.DecodeString(sampleRecordHex)
	epoch, got, err := DecodeRecord(raw)
	if err != nil || epoch != 42 || !reflect.DeepEqual(got, h) {
		t.Errorf("DecodeRecord(pinned) = %d, %+v, %v\nwant 42, %+v", epoch, got, err, h)
	}
}

// docType is the value of a TLV document's tag-1 field, the message type of a
// control-plane message (0 when it has none).
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

// controlTap keeps the payload of every control-plane PDU its stack sends.
type controlTap struct{ sent [][]byte }

func (w *controlTap) Name() string { return "controltap" }
func (w *controlTap) Outbound(pkt []byte, _ netapi.Addr) ([]byte, bool) {
	var p wire.PDU
	if wire.DecodeInto(pkt, &p) == nil {
		if p.Type == wire.TControl {
			w.sent = append(w.sent, append([]byte(nil), p.PayloadBytes()...))
		}
		p.ReleasePayload()
	}
	return pkt, true
}
func (w *controlTap) Inbound(pkt []byte, _ netapi.Addr) ([]byte, bool) { return pkt, true }

// TestControlBytesPinned migrates one session from host 1 to host 2 while
// host 3 holds its other end, and holds the first chunk and owner update to
// the bytes captured before the control-message codec moved onto a field
// table.
func TestControlBytesPinned(t *testing.T) {
	k := sim.NewKernel(1)
	net := netsim.New(k)
	var stacks []*protograph.Stack
	for i := 0; i < 3; i++ {
		net.AddHost()
	}
	for a := netapi.HostID(1); a <= 3; a++ {
		for b := netapi.HostID(1); b <= 3; b++ {
			if a != b {
				net.SetRoute(a, b, net.NewLink(netsim.LinkConfig{Bandwidth: 10e6, PropDelay: time.Millisecond, MTU: 1500}))
			}
		}
	}
	ctl := NewController()
	tap := &controlTap{}
	for h := netapi.HostID(1); h <= 3; h++ {
		st, err := protograph.NewStack(protograph.Config{Provider: net, Host: h, Seed: int64(h)})
		if err != nil {
			t.Fatal(err)
		}
		st.InsertLayer(tap)
		NewAgent(ctl, st, 0)
		stacks = append(stacks, st)
	}
	stacks[2].Listen(80, &protograph.Listener{OnAccept: func(s *session.Session) {
		s.SetReceiver(func(d session.Delivery) { d.Msg.Release() })
	}})
	spec := mechanism.DefaultSpec()
	s, _, err := stacks[0].CreateActiveSession(&spec, stacks[2].LocalAddr(), 1000, 80)
	if err != nil {
		t.Fatal(err)
	}
	s.Open()
	s.Send([]byte("before the move"))
	k.RunFor(time.Second)
	if err := ctl.Place(s.ConnID(), 1); err != nil {
		t.Fatal(err)
	}
	if err := ctl.Migrate(s.ConnID(), 2); err != nil {
		t.Fatal(err)
	}
	k.RunFor(time.Second)
	if owner, _, _ := ctl.Owner(s.ConnID()); owner != 2 {
		t.Fatalf("migration did not complete: owner %d", owner)
	}

	want := map[uint8]string{
		ctlChunk: "0001000101000200040d8f8adb000300080000000000000002000400020000000500020001000601a8000100080000000000000002000200040d8f8adb0003000203e80004000200500005000400000003000600021e14000700b200010001010002000102000300010000040001010005000102000600040000002000070004000000080008000800000000000000000009000400000578000a000400000100000b0008000000000bebc200000c00080000000000989680000d000800000002540be400000e00080000000002faf080000f000101001000040000000000110008000000000000000000120008000000000000000000130008000000000000000000140008000000000000000000080004000000010009000400000001000a000400000000000b000400000100000c000800000000001f6260000d000800000000000fb130000e00080000000000989680000f000800000000000000000010000800000000000000000011000800000000000000000012000800000000000000020013000800000000000000f90014000800000000000000020015000800000000000000ea0016000800000000000000000017000800000000000000000018000800000000000000000019000400000100",
		ctlOwner: "0001000103000200040d8f8adb0003000800000000000000020007000400000002000800021e14",
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
			t.Errorf("control type %d: first sent %x (%d bytes)\nwant %s", typ, got, len(got), pinned)
		}
	}
}
