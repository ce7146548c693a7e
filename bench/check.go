package main

import (
	"encoding/binary"
	"fmt"
	"hash/crc32"
	"time"

	"adaptive/bench/tap"
	"adaptive/internal/session"
	"adaptive/internal/wire"
	"adaptive/internal/workload"
)

// The sim workloads use internal/workload's generators, whose messages open
// with a 20-byte stamp: magic, send time, sequence. The benchmark keeps its
// own receiver-side meter rather than workload.Meter because it needs every
// latency sample exactly (the meter's histogram is log-bucketed, so its
// percentiles read the same on every run) and it checks the delivered
// stream, which the meter does not.
const (
	stampLen   = 20
	stampMagic = 0x41445054
)

func parseStamp(b []byte) (sent time.Duration, ok bool) {
	if len(b) < stampLen || binary.BigEndian.Uint32(b) != stampMagic {
		return 0, false
	}
	return time.Duration(binary.BigEndian.Uint64(b[4:])), true
}

// checkStampLayout fails loudly if workload's stamp format drifts from what
// parseStamp reads.
func checkStampLayout() error {
	const at = 0x1112131415161718
	b := workload.Stamp(7, at, stampLen)
	if sent, ok := parseStamp(b); !ok || sent != at {
		return fmt.Errorf("bench: workload.Stamp layout changed; update parseStamp")
	}
	return nil
}

// checkWireLayout fails loudly if the encoded PDU header drifts from the
// offsets the tap reads (type, checksum kind, ConnID) and rungDemux patches
// (flags, Seq, Aux). A drift would not fail any output check: it would file
// data frames as acks and corrupt every count derived from the frame log.
func checkWireLayout() error {
	for _, kind := range []wire.ChecksumKind{wire.CkNone, wire.CkInternet, wire.CkCRC32} {
		for _, typ := range []wire.Type{wire.TData, wire.TAck} {
			p := &wire.PDU{Header: wire.Header{Type: typ, Flags: wire.FlagImplicitCfg | wire.FlagEOM,
				ConnID: 0xA1B2C3D4, Seq: 0x01020304, Aux: 0x0506}}
			var pkt []byte
			if err := wire.EncodeTo(p, kind, func(b []byte) error {
				pkt = append([]byte(nil), b...)
				return nil
			}); err != nil {
				return fmt.Errorf("bench: wire.EncodeTo: %v", err)
			}
			if t, ck, conn := tap.HeaderFields(pkt); wire.Type(t) != typ || wire.ChecksumKind(ck) != kind || conn != p.ConnID {
				return fmt.Errorf("bench: wire header layout changed: the tap read type %d checksum %d conn %#x from a %v/%v PDU of conn %#x; update bench/tap",
					t, ck, conn, typ, kind, p.ConnID)
			}
			if kind != wire.CkNone {
				continue // rungDemux patches unchecksummed packets only
			}
			pkt[offFlags] &^= wire.FlagImplicitCfg
			binary.BigEndian.PutUint32(pkt[offSeq:], 0x0A0B0C0D)
			binary.BigEndian.PutUint16(pkt[offAux:], 0)
			var got wire.PDU
			if err := wire.DecodeInto(pkt, &got); err != nil {
				return fmt.Errorf("bench: wire header layout changed: a patched packet no longer decodes: %v", err)
			}
			want := p.Header
			want.Flags, want.Seq, want.Aux = wire.FlagEOM, 0x0A0B0C0D, 0
			want.SetChecksum(kind)
			if got.Header != want {
				return fmt.Errorf("bench: wire header layout changed: patched header decodes as %+v, want %+v; update rungDemux's offsets", got.Header, want)
			}
		}
	}
	return nil
}

var castagnoli = crc32.MakeTable(crc32.Castagnoli)

// stream checks one reliable byte stream end to end: the sender side folds
// every sent byte into a running CRC and remembers its value at each message
// end; the receiver side folds every delivered byte and, at each
// end-of-message, must arrive at the remembered value. Any lost, duplicated,
// reordered or damaged byte breaks every later comparison, so "all
// comparisons passed and none is pending" means exactly once, in order.
type stream struct {
	rig     *simRig
	out     workload.Sender
	conn    uint32
	stopped bool // a stopped stream swallows Sends (ends a generator)

	txCRC    uint32
	atEnd    []uint32 // txCRC at the end of each sent message, FIFO
	head     int
	sentMsgs uint64

	rxCRC    uint32
	doneMsgs uint64
	bad      uint64
	lastSent uint32 // CRC of the last sent message alone (echo check)
}

// Send implements workload.Sender.
func (s *stream) Send(data []byte) error {
	if s.stopped {
		return nil
	}
	s.txCRC = crc32.Update(s.txCRC, castagnoli, data)
	s.lastSent = crc32.Checksum(data, castagnoli)
	s.atEnd = append(s.atEnd, s.txCRC)
	s.sentMsgs++
	s.rig.attempted++
	rec := s.rig.rec
	if rec != nil {
		rec.Begin(tap.AppSend, s.conn)
	}
	err := s.out.Send(data)
	if rec != nil {
		rec.End(1)
	}
	if err != nil {
		s.bad++
	}
	return err
}

// delivered folds one delivered segment into the receive side.
func (s *stream) delivered(b []byte, eom bool) {
	s.rxCRC = crc32.Update(s.rxCRC, castagnoli, b)
	if !eom {
		return
	}
	if s.head >= len(s.atEnd) || s.atEnd[s.head] != s.rxCRC {
		s.bad++
	}

	s.head++
	s.doneMsgs++
	if s.head >= 1024 && s.head*2 >= len(s.atEnd) {
		s.atEnd = append(s.atEnd[:0], s.atEnd[s.head:]...)
		s.head = 0
	}
}

// pending is how many sent messages have not been delivered.
func (s *stream) pending() uint64 { return s.sentMsgs - s.doneMsgs }

// sink is the receiving application of one sim session: it meters stamped
// messages, counts payload, and checks the stream (reliable sessions) or
// the absence of duplicates (loss-tolerant ones).
type sink struct {
	rig *simRig
	st  *stream // nil for a loss-tolerant session
	// rung names the session-ladder rung matching this session's mechanisms;
	// segs counts its delivered data PDUs.
	rung string
	segs uint64

	open     bool
	openSent time.Duration

	// Loss-tolerant duplicate filter: the highest transport sequence seen
	// and a bitmap of the 64 below it.
	any  bool
	hi   uint32
	mask uint64
	dups uint64
}

// observe consumes one delivery without taking ownership of the message.
func (k *sink) observe(d session.Delivery) {
	r := k.rig
	k.segs++
	b := d.Msg.Bytes()
	now := r.k.Now()
	in := now >= r.winStart && now < r.winEnd
	if in {
		r.payload += uint64(len(b))
	}
	r.payloadAll += uint64(len(b))
	if sent, ok := parseStamp(b); ok {
		k.open, k.openSent = true, sent
	}
	if k.st != nil {
		k.st.delivered(b, d.EOM)
	} else {
		k.noDup(d.Seq)
	}
	if d.EOM && k.open {
		k.open = false
		if in {
			r.latUs = append(r.latUs, float64(now-k.openSent)/float64(time.Microsecond))
		}
	}
}

func (k *sink) noDup(seq uint32) {
	switch {
	case !k.any:
		k.any, k.hi, k.mask = true, seq, 0
	case seq > k.hi:
		shift := seq - k.hi
		if shift >= 64 {
			k.mask = 0
		} else {
			k.mask = k.mask<<shift | 1<<(shift-1)
		}
		k.hi = seq
	case seq == k.hi:
		k.dups++
	case k.hi-seq <= 64:
		bit := uint64(1) << (k.hi - seq - 1)
		if k.mask&bit != 0 {
			k.dups++
		}
		k.mask |= bit
	}
}

// onDelivery is the session receiver: observe inside an app.deliver span,
// then release.
func (k *sink) onDelivery(d session.Delivery) {
	rec := k.rig.rec
	if rec != nil {
		rec.Begin(tap.AppDeliver, 0)
	}
	k.observe(d)
	d.Msg.Release()
	if rec != nil {
		rec.End(1)
	}
}
