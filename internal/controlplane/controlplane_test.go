package controlplane

import (
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

// idleAgents returns agents for simulator hosts 1..n, each on its own stack
// and enrolled nowhere: the controller tests need hosts, not traffic.
func idleAgents(t *testing.T, n int) []*Agent {
	t.Helper()
	net := netsim.New(sim.NewKernel(1))
	agents := make([]*Agent, n)
	for i := range agents {
		host := net.AddHost().ID()
		stack, err := protograph.NewStack(protograph.Config{Provider: net, Host: host})
		if err != nil {
			t.Fatal(err)
		}
		agents[i] = &Agent{host: host, stack: stack}
	}
	return agents
}

func sampleHandoff() *session.Handoff {
	spec := mechanism.DefaultSpec()
	spec.Normalize()
	return &session.Handoff{
		Identity: session.Identity{ConnID: 0xdeadbeef, LocalPort: 1000, PeerPort: 2000, PeerNet: netapi.Addr{Host: 7, Port: 9}},
		Spec:     &spec,
		Portable: mechanism.Portable{SndUna: 100, SndNxt: 105, RcvNxt: 50, RcvBufCap: 256, PeerAdvert: 64,
			SRTT: 3 * time.Millisecond, RTTVar: 500 * time.Microsecond, RTO: 20 * time.Millisecond,
			Counters: mechanism.Counters{Retransmissions: 4, FECRecovered: 2, GapsAbandoned: 1}},
		Meters: session.Meters{SentPDUs: 500, SentBytes: 400000, RecvPDUs: 300, RecvBytes: 200000,
			DeliveredMsg: 120, DeliveredBytes: 199999, Segues: 3},
		Unacked: []session.HandoffPDU{
			{Seq: 100, Flags: 1, Aux: 2, Payload: []byte("payload-100")},
			{Seq: 103, Payload: []byte("payload-103")},
			{Seq: 104, Flags: 3}, // probe-like: empty payload
		},
		RcvBuf: []session.HandoffPDU{
			{Seq: 52, Aux: 9, Payload: []byte("rcv-52")},
		},
		SendQ: []session.HandoffSeg{
			{Data: []byte("queued-a"), EOM: false},
			{Data: []byte("queued-b"), EOM: true},
		},
	}
}

// fillDistinct gives every scalar field under v, nested structs included, its
// own non-zero value.
func fillDistinct(t *testing.T, v reflect.Value, next *uint64) {
	for i := 0; i < v.NumField(); i++ {
		f := v.Field(i)
		switch f.Kind() {
		case reflect.Struct:
			fillDistinct(t, f, next)
		case reflect.Uint16, reflect.Uint32, reflect.Uint64:
			*next++
			f.SetUint(*next)
		case reflect.Int, reflect.Int64:
			*next++
			f.SetInt(int64(*next))
		default:
			t.Fatalf("%s.%s: a %s travels in no record width", v.Type(), v.Type().Field(i).Name, f.Kind())
		}
	}
}

// TestRecordRoundTrip fills the session's portable structs by reflection, so
// a scalar added to one of them without a line in the record's tag table
// comes back zero and fails here.
func TestRecordRoundTrip(t *testing.T) {
	h := sampleHandoff()
	var n uint64
	for _, part := range []any{&h.Identity, &h.Portable, &h.Meters} {
		fillDistinct(t, reflect.ValueOf(part).Elem(), &n)
	}
	raw := EncodeRecord(42, h)
	epoch, got, err := DecodeRecord(raw)
	if err != nil {
		t.Fatalf("DecodeRecord: %v", err)
	}
	if epoch != 42 {
		t.Fatalf("epoch = %d, want 42", epoch)
	}
	// Spec round-trips through its own codec; compare the rest field-wise.
	gotSpec, wantSpec := got.Spec, h.Spec
	got.Spec, h.Spec = nil, nil
	if !reflect.DeepEqual(got, h) {
		t.Errorf("handoff mismatch:\n got %+v\nwant %+v", got, h)
	}
	if gotSpec.Recovery != wantSpec.Recovery || gotSpec.Order != wantSpec.Order {
		t.Errorf("spec mismatch: got %+v want %+v", gotSpec, wantSpec)
	}
}

func TestRecordRoundTripEmptyBuffers(t *testing.T) {
	h := sampleHandoff()
	h.Unacked, h.RcvBuf, h.SendQ = nil, nil, nil
	epoch, got, err := DecodeRecord(EncodeRecord(7, h))
	if err != nil {
		t.Fatalf("DecodeRecord: %v", err)
	}
	if epoch != 7 || len(got.Unacked) != 0 || len(got.RcvBuf) != 0 || len(got.SendQ) != 0 {
		t.Fatalf("expected empty buffers, got %+v", got)
	}
}

func TestRecordEncodeDeterministic(t *testing.T) {
	h := sampleHandoff()
	a := EncodeRecord(9, h)
	b := EncodeRecord(9, h)
	if !reflect.DeepEqual(a, b) {
		t.Fatal("EncodeRecord is not deterministic")
	}
}

func TestDecodeRecordRejectsGarbage(t *testing.T) {
	if _, _, err := DecodeRecord(nil); err == nil {
		t.Error("empty record should not decode")
	}
	if _, _, err := DecodeRecord([]byte{0, 1, 0}); err == nil {
		t.Error("truncated TLV should not decode")
	}
	// A record with no spec must be rejected even if the TLV stream is valid.
	h := sampleHandoff()
	raw := EncodeRecord(1, h)
	// Strip the spec by re-encoding without it is awkward; instead corrupt the
	// spec tag so the decoder never sees tag 7.
	for i := 0; i+4 <= len(raw); {
		tag := uint16(raw[i])<<8 | uint16(raw[i+1])
		n := int(raw[i+2])<<8 | int(raw[i+3])
		if tag == 7 { // the spec
			raw[i] = 0xff // unknown tag: skipped by the decoder
			break
		}
		i += 4 + n
	}
	if _, _, err := DecodeRecord(raw); err == nil {
		t.Error("record without spec should not decode")
	}
}

func TestControllerAdmission(t *testing.T) {
	c := NewController()
	a := idleAgents(t, 2)
	c.enroll(a[0], 2)
	c.enroll(a[1], 1)

	if err := c.Place(10, 1); err != nil {
		t.Fatalf("Place(10,1): %v", err)
	}
	if err := c.Place(11, 1); err != nil {
		t.Fatalf("Place(11,1): %v", err)
	}
	if err := c.Place(12, 1); err == nil {
		t.Fatal("Place beyond capacity should fail")
	}
	if err := c.Place(12, 3); err == nil {
		t.Fatal("Place on unenrolled host should fail")
	}
	if err := c.Place(10, 2); err == nil {
		t.Fatal("double Place should fail")
	}
	st := c.Status()
	if st.AdmissionRejects != 1 {
		t.Errorf("AdmissionRejects = %d, want 1", st.AdmissionRejects)
	}
	if st.SessionsPlaced != 2 {
		t.Errorf("SessionsPlaced = %d, want 2", st.SessionsPlaced)
	}
	if host, epoch, ok := c.Owner(10); !ok || host != 1 || epoch != 1 {
		t.Errorf("Owner(10) = %d,%d,%v want 1,1,true", host, epoch, ok)
	}

	c.release(11, 2) // not the lease holder: nothing to give back
	if err := c.Place(12, 1); err == nil {
		t.Fatal("a release from another host freed the owner's slot")
	}
	c.release(11, 1)
	if err := c.Place(12, 1); err != nil {
		t.Fatalf("Place after release: %v", err)
	}
}

func TestControllerMigrateValidation(t *testing.T) {
	c := NewController()
	a := idleAgents(t, 2)
	c.enroll(a[0], 0)
	c.enroll(a[1], 1)
	if err := c.Place(10, 1); err != nil {
		t.Fatal(err)
	}
	if err := c.Migrate(99, 2); err == nil {
		t.Error("migrating an unplaced conn should fail")
	}
	if err := c.Migrate(10, 1); err == nil {
		t.Error("migrating to the current owner should fail")
	}
	if err := c.Migrate(10, 3); err == nil {
		t.Error("migrating to an unenrolled host should fail")
	}
	// Fill host 2 to capacity; admission must also guard migration.
	if err := c.Place(11, 2); err != nil {
		t.Fatal(err)
	}
	if err := c.Migrate(10, 2); err == nil {
		t.Error("migrating into a full host should fail")
	}
	if got := c.Status().AdmissionRejects; got != 1 {
		t.Errorf("AdmissionRejects = %d, want 1", got)
	}
}

func TestMetricCounters(t *testing.T) {
	c := NewController()
	c.enroll(&Agent{host: 1}, 0)
	_ = c.Place(10, 1)
	m := c.MetricCounters()
	for _, k := range []string{"ctl.sessions_placed", "ctl.migrations", "ctl.migrations_failed", "ctl.admission_rejects", "ctl.lease_epochs",
		"ctl.handoffs_refused", "ctl.handoffs_expired"} {
		if m[k] == nil {
			t.Fatalf("missing counter %q", k)
		}
	}
	if got := m["ctl.sessions_placed"](); got != 1 {
		t.Errorf("ctl_sessions_placed = %d, want 1", got)
	}
	if got := m["ctl.lease_epochs"](); got != 1 {
		t.Errorf("ctl_lease_epochs = %d, want 1", got)
	}
}

// TestInboundReassemblyIsBounded: any host that reaches the SAP can send
// hand-off chunks on the channel, so what an agent holds for them is capped —
// record size, chunk size, open reassemblies — and an incomplete one is
// dropped at the channel's give-up horizon, when its sender must have given
// up. Each refusal shows in the adaptive_ctl_* counters.
func TestInboundReassemblyIsBounded(t *testing.T) {
	k := sim.NewKernel(1)
	net := netsim.New(k)
	target, sender := net.AddHost().ID(), net.AddHost().ID()
	link := netsim.LinkConfig{Bandwidth: 10e6, PropDelay: time.Millisecond, MTU: 1500}
	net.SetRoute(target, sender, net.NewLink(link))
	net.SetRoute(sender, target, net.NewLink(link))
	stack, err := protograph.NewStack(protograph.Config{Provider: net, Host: target})
	if err != nil {
		t.Fatal(err)
	}
	from, err := protograph.NewStack(protograph.Config{Provider: net, Host: sender})
	if err != nil {
		t.Fatal(err)
	}
	ctl := NewController()
	a := NewAgent(ctl, stack, 0)
	counter := ctl.MetricCounters()
	refused, expired := counter["ctl.handoffs_refused"], counter["ctl.handoffs_expired"]
	chunk := func(conn uint32, epoch uint64, count int, data []byte) {
		m := control{Type: ctlChunk, Conn: conn, Epoch: epoch, Count: uint16(count), Data: data}
		f := m.fields()
		from.SendDoc(wire.TControl, f[:], stack.LocalAddr(), nil)
		k.RunFor(10 * time.Millisecond)
	}

	// A record larger than any source would send is refused outright.
	chunk(1, 1, maxRecordBytes/chunkSize+1, []byte("x"))
	if len(a.in) != 0 || refused() != 1 {
		t.Fatalf("oversize record: %d open, %d refused; want 0, 1", len(a.in), refused())
	}
	// A chunk larger than a source cuts them is refused with its record.
	chunk(1, 1, 2, make([]byte, chunkSize+1))
	if len(a.in) != 0 || refused() != 2 {
		t.Fatalf("oversize chunk: %d open, %d refused; want 0, 2", len(a.in), refused())
	}
	// maxInbound reassemblies may be open; the next connection is refused,
	// while a newer epoch for an open one replaces it.
	for id := uint32(2); len(a.in) < maxInbound; id++ {
		chunk(id, 1, 2, []byte("x"))
	}
	chunk(1000, 1, 2, []byte("x"))
	if a.in[1000] != nil || len(a.in) != maxInbound || refused() != 3 {
		t.Fatalf("over the cap: %d open, %d refused; want %d, 3", len(a.in), refused(), maxInbound)
	}
	chunk(2, 2, 3, []byte("x"))
	if im := a.in[2]; im == nil || im.epoch != 2 || len(a.in) != maxInbound || refused() != 3 {
		t.Fatalf("newer epoch did not replace the open reassembly: %+v", im)
	}

	// None of them completes: all are gone a horizon after their last chunk,
	// and no timer is left behind on either stack.
	k.RunFor(protograph.DocHorizon)
	if len(a.in) != 0 || expired() != maxInbound {
		t.Fatalf("after the horizon: %d open, %d expired; want 0, %d", len(a.in), expired(), maxInbound)
	}
	for _, st := range []*protograph.Stack{stack, from} {
		if p := st.Timers().Stats().Pending; p != 0 {
			t.Fatalf("%d timers pending after every reassembly expired", p)
		}
	}
}

// chunkTap watches a hand-off's chunks leave the source and reach the target.
type chunkTap struct {
	target  bool
	sent    *int         // highest chunk index the source has put on the wire, +1
	arrived map[int]bool // chunk indexes that reached the target
	count   *int         // chunks in the record
	ahead   *int         // most chunks ever on the wire beyond what had arrived
}

func (w *chunkTap) Name() string { return "chunktap" }

func (w *chunkTap) see(pkt []byte, at bool) {
	var p wire.PDU
	if wire.DecodeInto(pkt, &p) != nil {
		return
	}
	defer p.ReleasePayload()
	var m control
	if f := m.fields(); p.Type != wire.TControl || wire.Decode(p.PayloadBytes(), f[:]) != nil || m.Type != ctlChunk {
		return
	}
	if at {
		w.arrived[int(m.Idx)] = true
		return
	}
	*w.count = int(m.Count)
	*w.sent = max(*w.sent, int(m.Idx)+1)
	*w.ahead = max(*w.ahead, *w.sent-len(w.arrived))
}

func (w *chunkTap) Outbound(pkt []byte, _ netapi.Addr) ([]byte, bool) {
	if !w.target {
		w.see(pkt, false)
	}
	return pkt, true
}

func (w *chunkTap) Inbound(pkt []byte, _ netapi.Addr) ([]byte, bool) {
	if w.target {
		w.see(pkt, true)
	}
	return pkt, true
}

// TestHandoffKeepsOneWindowInFlight: a hand-off record of over 1 MiB crosses
// links that lose 5 % of packets, and the source never has more than one
// channel window of chunks on the wire beyond those that reached the target:
// the record is paced by the channel, not put on the wire at once.
func TestHandoffKeepsOneWindowInFlight(t *testing.T) {
	k := sim.NewKernel(1)
	net := netsim.New(k)
	for i := 0; i < 3; i++ {
		net.AddHost()
	}
	for a := netapi.HostID(1); a <= 3; a++ {
		for b := netapi.HostID(1); b <= 3; b++ {
			if a != b {
				net.SetRoute(a, b, net.NewLink(netsim.LinkConfig{Bandwidth: 10e6, PropDelay: time.Millisecond, MTU: 1500, DropRate: 0.05}))
			}
		}
	}
	ctl := NewController()
	var stacks []*protograph.Stack
	for h := netapi.HostID(1); h <= 3; h++ {
		st, err := protograph.NewStack(protograph.Config{Provider: net, Host: h, Seed: int64(h)})
		if err != nil {
			t.Fatal(err)
		}
		NewAgent(ctl, st, 0)
		stacks = append(stacks, st)
	}
	var sent, count, ahead int
	arrived := map[int]bool{}
	stacks[0].InsertLayer(&chunkTap{sent: &sent, arrived: arrived, count: &count, ahead: &ahead})
	stacks[1].InsertLayer(&chunkTap{target: true, sent: &sent, arrived: arrived, count: &count, ahead: &ahead})
	stacks[2].Listen(80, &protograph.Listener{OnAccept: func(s *session.Session) {
		s.SetReceiver(func(d session.Delivery) { d.Msg.Release() })
	}})
	spec := mechanism.DefaultSpec()
	s, _, err := stacks[0].CreateActiveSession(&spec, stacks[2].LocalAddr(), 1000, 80)
	if err != nil {
		t.Fatal(err)
	}
	s.Open()
	k.RunFor(time.Second)
	// The queued send travels in the record.
	if err := s.Send(make([]byte, 1100<<10)); err != nil {
		t.Fatal(err)
	}
	if err := ctl.Place(s.ConnID(), 1); err != nil {
		t.Fatal(err)
	}
	start := k.Now()
	if err := ctl.Migrate(s.ConnID(), 2); err != nil {
		t.Fatal(err)
	}
	for k.Now() < start+time.Minute {
		if owner, _, _ := ctl.Owner(s.ConnID()); owner == 2 {
			break
		}
		k.RunFor(10 * time.Millisecond)
	}
	t.Logf("%d chunks in %v; at most %d on the wire beyond those arrived", count, k.Now()-start, ahead)
	if count < 1024 {
		t.Fatalf("the record is %d chunks, not the 1 MiB the test is about", count)
	}
	if ahead > protograph.DocWindow {
		t.Fatalf("%d chunks on the wire beyond those that reached the target; the window is %d", ahead, protograph.DocWindow)
	}
	if owner, _, _ := ctl.Owner(s.ConnID()); owner != 2 {
		t.Fatalf("migration did not complete: owner %d, %d of %d chunks arrived", owner, len(arrived), count)
	}
}
