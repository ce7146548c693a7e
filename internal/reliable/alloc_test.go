package reliable

import (
	"testing"

	"adaptive/internal/mechanism"
	"adaptive/internal/mechanism/mechtest"
	"adaptive/internal/wire"
)

// quietEnv overrides mechtest.Env's logging EmitControl (which snapshots
// every PDU and therefore allocates) with a bare counter, so AllocsPerRun
// measures only the ack-construction path itself.
type quietEnv struct {
	*mechtest.Env
	acks uint32
}

func (q *quietEnv) EmitControl(p *wire.PDU) {
	if p.Type == wire.TAck {
		q.acks++
	}
}

// TestSendCumAckZeroAlloc pins cumulative-ack construction at zero heap
// allocations: the ack PDU is built in the TransferState's CtrlScratch slot
// and handed to the emitter synchronously, so steady-state acking — the
// single most frequent control action in a soak — never touches the heap.
func TestSendCumAckZeroAlloc(t *testing.T) {
	e := &quietEnv{Env: mechtest.New(nil)}
	e.StateV.RcvNxt = 7
	sendCumAck(e) // warm-up: nothing to warm, but mirrors real call order
	allocs := testing.AllocsPerRun(1000, func() {
		e.StateV.RcvNxt++
		sendCumAck(e)
	})
	if allocs != 0 {
		t.Fatalf("sendCumAck: %v allocs/op, want 0", allocs)
	}
	if e.acks == 0 {
		t.Fatal("no acks emitted — measurement exercised nothing")
	}
}

// TestOnNakZeroAlloc pins NAK handling at zero heap allocations: the
// missing-sequence list is decoded into a stack buffer, and the throttle that
// turns a repeated NAK away is a slot lookup. (Each sequence is retransmitted
// once on the warm-up call; the measured calls arrive inside the
// retransmission gap, the case a NAK storm makes hot.)
func TestOnNakZeroAlloc(t *testing.T) {
	for name, r := range map[string]mechanism.Recovery{"selective-repeat": NewSelectiveRepeat(), "fec-hybrid": NewFEC(true)} {
		e := mechtest.New(nil)
		missing := make([]uint32, maxNakList)
		for i := range missing {
			missing[i] = uint32(i)
			e.SentEntry(uint32(i), "p", 0)
		}
		nak := EncodeNak(nil, missing)
		r.OnNak(e, nak)
		if len(e.Data) != maxNakList {
			t.Fatalf("%s: warm-up retransmitted %d PDUs, want %d", name, len(e.Data), maxNakList)
		}
		if allocs := testing.AllocsPerRun(200, func() { r.OnNak(e, nak) }); allocs != 0 {
			t.Fatalf("%s: OnNak: %v allocs/op, want 0", name, allocs)
		}
	}
}
