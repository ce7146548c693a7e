package protograph

import (
	"time"

	"adaptive/internal/netapi"
	"adaptive/internal/wire"
)

// A connection that has ended can no longer swallow its own stragglers: a
// duplicated CONNREQ or implicit-config data PDU would reach a listener and
// spawn a ghost session, and a peer whose FINACK was lost would retry its FIN
// into the void. The stack therefore remembers each ended ConnID for
// tombLinger — long enough for a peer's FIN retries (six, one RTO apart) and
// anything the network duplicated or delayed — in a table of at most tombCap
// entries, evicting the oldest when full.
const (
	tombLinger = 10 * time.Second
	tombCap    = 512
)

// tombstones is the fixed-size table: ring holds the entries in the order
// their connections ended, which is also the order they expire in; until
// answers lookups.
type tombstones struct {
	ring    [tombCap]tomb
	head, n int
	until   map[uint32]time.Duration // ConnID -> expiry on the stack's clock
}

type tomb struct {
	connID uint32
	until  time.Duration
}

func (t *tombstones) add(connID uint32, now time.Duration) {
	for t.n > 0 && (t.n == tombCap || t.ring[t.head].until <= now) {
		old := t.ring[t.head]
		// A dropped-and-re-added ConnID sits in the ring twice; only the slot
		// that still matches the map owns the map entry.
		if t.until[old.connID] == old.until {
			delete(t.until, old.connID)
		}
		t.head = (t.head + 1) % tombCap
		t.n--
	}
	e := tomb{connID: connID, until: now + tombLinger}
	t.ring[(t.head+t.n)%tombCap] = e
	t.n++
	t.until[connID] = e.until
}

func (t *tombstones) has(connID uint32, now time.Duration) bool {
	until, ok := t.until[connID]
	return ok && now < until
}

func (t *tombstones) drop(connID uint32) { delete(t.until, connID) }

// latePDU disposes of a PDU addressed to an ended connection. A FIN is
// answered the way the session would have answered it, so a peer that lost
// our FINACK finishes its close instead of retrying into silence; everything
// else is dropped. Either way it is counted and never reaches a listener.
func (st *Stack) latePDU(p *wire.PDU, from netapi.Addr) {
	st.late.Add(1)
	if p.Type == wire.TFin {
		ack := wire.PDU{Header: wire.Header{Type: wire.TFinAck, ConnID: p.ConnID,
			SrcPort: p.DstPort, DstPort: p.SrcPort, Ack: p.Seq}}
		st.cache.EncodeTo(&ack, p.Checksum(), func(pkt []byte) error { return st.Transmit(pkt, from) })
	}
	st.cache.PutPDU(p)
}
