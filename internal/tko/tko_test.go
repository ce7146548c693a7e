package tko

import (
	"testing"
	"time"

	"adaptive/internal/mechanism"
	"adaptive/internal/mechanism/mechtest"
	"adaptive/internal/message"
	"adaptive/internal/wire"
	"adaptive/internal/xmit"
)

func TestDefaultRegistryBuildsEveryKind(t *testing.T) {
	reg := DefaultRegistry()
	conns := []mechanism.ConnKind{mechanism.ConnImplicit, mechanism.ConnExplicit2Way, mechanism.ConnExplicit3Way}
	recs := []mechanism.RecoveryKind{mechanism.RecoveryNone, mechanism.RecoveryGoBackN, mechanism.RecoverySelectiveRepeat, mechanism.RecoveryFEC, mechanism.RecoveryFECHybrid}
	wins := []mechanism.WindowKind{mechanism.WindowFixed, mechanism.WindowStopAndWait, mechanism.WindowAdaptive}
	ords := []mechanism.OrderKind{mechanism.OrderNone, mechanism.OrderSequenced}
	for _, c := range conns {
		for _, r := range recs {
			for _, w := range wins {
				for _, o := range ords {
					spec := mechanism.DefaultSpec()
					spec.ConnMgmt, spec.Recovery, spec.Window, spec.Order = c, r, w, o
					slots, err := reg.Build(&spec)
					if err != nil {
						t.Fatalf("%v/%v/%v/%v: %v", c, r, w, o, err)
					}
					if slots.Conn == nil || slots.Recovery == nil || slots.Window == nil || slots.Orderer == nil || slots.Rate == nil {
						t.Fatalf("%v/%v/%v/%v: nil slot", c, r, w, o)
					}
					for _, m := range []mechanism.Mechanism{slots.Conn, slots.Recovery, slots.Window, slots.Orderer, slots.Rate} {
						if m.Name() == "" {
							t.Fatalf("%v/%v/%v/%v: %T has no name", c, r, w, o, m)
						}
					}
				}
			}
		}
	}
}

func TestBuildUnknownKindFails(t *testing.T) {
	reg := NewRegistry()
	spec := mechanism.DefaultSpec()
	if _, err := reg.Build(&spec); err == nil {
		t.Fatal("empty registry built a session")
	}
}

func TestRegistryExtensibleAtRuntime(t *testing.T) {
	// The paper: "permitting the addition of new and/or alternative
	// services at run-time." A custom recovery kind registers and builds.
	const customKind = mechanism.RecoveryKind(99)
	reg := DefaultRegistry()
	reg.RegisterRecovery(customKind, func(*mechanism.Spec) mechanism.Recovery {
		return fakeRecovery{}
	})
	spec := mechanism.DefaultSpec()
	spec.Recovery = customKind
	slots, err := reg.Build(&spec)
	if err != nil {
		t.Fatal(err)
	}
	if slots.Recovery.Name() != "fake" {
		t.Fatalf("built %q", slots.Recovery.Name())
	}
}

type fakeRecovery struct{}

func (fakeRecovery) Name() string                        { return "fake" }
func (fakeRecovery) Reliable() bool                      { return false }
func (fakeRecovery) UsesRTO() bool                       { return false }
func (fakeRecovery) Handover(mechanism.Env)              {}
func (fakeRecovery) Stop()                               {}
func (fakeRecovery) OnSendData(mechanism.Env, *wire.PDU) {}
func (fakeRecovery) OnAck(mechanism.Env, *wire.PDU)      {}
func (fakeRecovery) OnNak(mechanism.Env, *wire.PDU)      {}
func (fakeRecovery) OnRTO(mechanism.Env)                 {}
func (fakeRecovery) OnData(mechanism.Env, *wire.PDU)     {}
func (fakeRecovery) OnParity(mechanism.Env, *wire.PDU)   {}
func (fakeRecovery) ExportState() any                    { return nil }
func (fakeRecovery) ImportState(any)                     {}

func TestSynthesizerTemplateHit(t *testing.T) {
	sy := NewSynthesizer(DefaultRegistry())
	spec := mechanism.DefaultSpec()
	sy.InstallTemplate("common", TemplateReconfigurable, spec)
	res, err := sy.Synthesize(&spec)
	if err != nil {
		t.Fatal(err)
	}
	if res.FromTemplate == nil || res.FromTemplate.Name != "common" {
		t.Fatalf("template missed: %+v", res.FromTemplate)
	}
	if res.Static {
		t.Fatal("reconfigurable template marked static")
	}
	if s := sy.Stats(); s.TemplateHits != 1 || s.Synthesized != 0 {
		t.Fatalf("stats %+v", s)
	}
}

func TestSynthesizerMissInstallsTemplate(t *testing.T) {
	sy := NewSynthesizer(DefaultRegistry())
	spec := mechanism.DefaultSpec()
	spec.WindowSize = 17 // novel SCS
	if res, _ := sy.Synthesize(&spec); res.FromTemplate != nil {
		t.Fatal("first request hit a template")
	}
	if res, _ := sy.Synthesize(&spec); res.FromTemplate == nil {
		t.Fatal("second identical request missed the auto-installed template")
	}
	if s := sy.Stats(); s.Synthesized != 1 || s.TemplateHits != 1 {
		t.Fatalf("stats %+v", s)
	}
}

func TestStaticTemplateMarksStatic(t *testing.T) {
	sy := NewSynthesizer(DefaultRegistry())
	spec := mechanism.DefaultSpec()
	spec.ConnMgmt = mechanism.ConnExplicit3Way
	sy.InstallTemplate("tcp-compat", TemplateStatic, spec)
	res, err := sy.Synthesize(&spec)
	if err != nil {
		t.Fatal(err)
	}
	if !res.Static || res.FromTemplate == nil || res.FromTemplate.Name != "tcp-compat" {
		t.Fatalf("static template not recognized: %+v", res)
	}
}

func TestSpecKeyDistinguishesParameters(t *testing.T) {
	a, b := mechanism.DefaultSpec(), mechanism.DefaultSpec()
	b.WindowSize = a.WindowSize + 1
	if specKey(&a) == specKey(&b) {
		t.Fatal("window size not in template key")
	}
	c := a
	c.Recovery = mechanism.RecoveryFEC
	if specKey(&a) == specKey(&c) {
		t.Fatal("recovery kind not in template key")
	}
}

// TestMechanismsIgnoreWhatTheyDoNotConsume hands every recovery strategy the
// events its design has no use for — with retransmission state standing by
// that a wrong consumer would act on — and every window and rate mechanism
// the feedback it does not adapt to: nothing is emitted and no transfer state
// moves.
func TestMechanismsIgnoreWhatTheyDoNotConsume(t *testing.T) {
	nak := func() *wire.PDU {
		p := &wire.PDU{Header: wire.Header{Type: wire.TNak, Aux: 2}}
		p.Payload = message.NewFromBytes([]byte{0, 0, 0, 0, 0, 0, 0, 1}) // seqs 0 and 1
		return p
	}
	events := map[string]func(mechanism.Recovery, mechanism.Env){
		"ack": func(r mechanism.Recovery, e mechanism.Env) {
			r.OnAck(e, &wire.PDU{Header: wire.Header{Type: wire.TAck, Ack: 2}})
		},
		"nak": func(r mechanism.Recovery, e mechanism.Env) { r.OnNak(e, nak()) },
		"rto": func(r mechanism.Recovery, e mechanism.Env) { r.OnRTO(e) },
		"parity": func(r mechanism.Recovery, e mechanism.Env) {
			r.OnParity(e, &wire.PDU{Header: wire.Header{Type: wire.TParity}})
		},
		"send": func(r mechanism.Recovery, e mechanism.Env) { r.OnSendData(e, mechtest.DataPDU(2, "c")) },
	}
	for _, tc := range []struct {
		kind    mechanism.RecoveryKind
		ignores []string
	}{
		{mechanism.RecoveryNone, []string{"ack", "nak", "rto", "parity"}},
		{mechanism.RecoveryGoBackN, []string{"nak", "parity", "send"}},
		{mechanism.RecoverySelectiveRepeat, []string{"ack", "parity", "send"}},
		{mechanism.RecoveryFEC, []string{"ack", "nak"}},
		{mechanism.RecoveryFECHybrid, []string{"ack"}},
	} {
		for _, ev := range tc.ignores {
			spec := mechanism.DefaultSpec()
			spec.Recovery = tc.kind
			slots, err := DefaultRegistry().Build(&spec)
			if err != nil {
				t.Fatal(err)
			}
			env := mechtest.New(&spec)
			for seq := uint32(0); seq < 3; seq++ {
				env.SentEntry(seq, "x", 0)
			}
			st := env.State()
			before, unacked, held := st.Portable, st.Unacked.Len(), st.RcvBuf.Len()
			events[ev](slots.Recovery, env)
			env.Kernel.RunFor(time.Minute) // and no timer was left to act later
			if n := len(env.Control) + len(env.Data) + len(env.Released) + len(env.Notes) + len(env.Skips) + env.Pumps + env.WindowLosses; n != 0 {
				t.Errorf("%s on %s: %d emissions or upcalls", slots.Recovery.Name(), ev, n)
			}
			if st.Portable != before || st.Unacked.Len() != unacked || st.RcvBuf.Len() != held || st.DupAcks != 0 {
				t.Errorf("%s on %s: transfer state moved: %+v -> %+v", slots.Recovery.Name(), ev, before, st.Portable)
			}
		}
	}

	for _, w := range []mechanism.Window{xmit.NewFixedWindow(8), xmit.NewStopAndWait()} {
		size := w.Size()
		w.OnAck(3)
		w.OnLoss()
		w.(mechanism.StateCarrier).ImportState(64) // a fixed window keeps its own size across a segue
		if w.Size() != size || !w.CanSend(size-1, size) || w.CanSend(size, size+1) {
			t.Errorf("%s: window of %d moved under ack and loss feedback", w.Name(), size)
		}
	}
	var unpaced mechanism.Rate = xmit.NoRate{}
	unpaced.OnSent(time.Second, 1500)
	unpaced.SetRate(1e6)
	if unpaced.RateBps() != 0 || unpaced.Delay(time.Second, 1500) != 0 {
		t.Errorf("%s paces", unpaced.Name())
	}
}
