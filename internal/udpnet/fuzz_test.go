package udpnet

import (
	"bytes"
	"encoding/binary"
	"errors"
	"testing"

	"adaptive/internal/message"
	"adaptive/internal/netapi"
	"adaptive/internal/wire/wiretest"
)

// parseDatagram is the reader's parse of one wire datagram, kept as the
// packets it yields: expand into a pooled batch, whose slabs the packets
// then own.
func parseDatagram(t *testing.T, dgram []byte) ([]netapi.Packet, error) {
	b := getRxBatch()
	n := expand(dgram, b)
	pkts := append([]netapi.Packet(nil), b.pkts...)
	b.pkts = b.pkts[:0]
	putRxBatch(b)
	if n != len(pkts) {
		t.Fatalf("expand counted %d frames, yielded %d", n, len(pkts))
	}
	if n == 0 {
		return nil, errors.New("no frame")
	}
	return pkts, nil
}

// encodeTrain frames the packets the way Send does and packs them into one
// train the way a flush does.
func encodeTrain(t *testing.T, pkts []netapi.Packet) []byte {
	run := make([]outMsg, len(pkts))
	for i, p := range pkts {
		f := message.GetSlab(frameOverhead + len(p.Data))
		binary.BigEndian.PutUint32(f, uint32(p.From.Host))
		binary.BigEndian.PutUint16(f[4:], p.From.Port)
		copy(f[frameOverhead:], p.Data)
		run[i] = outMsg{frame: f, frames: 1}
	}
	train := buildTrain(run)
	if train.frames != len(pkts) {
		t.Fatalf("train of %d frames counts %d", len(pkts), train.frames)
	}
	out := append([]byte(nil), train.frame...)
	message.PutSlab(train.frame)
	return out
}

// FuzzExpandTrain holds the receive parse of one datagram to the document
// contract (wiretest.Contract: no panic, allocation linear in the input, and
// frames re-encoded as a train parse back to themselves), and checks the
// count: never more packets than the datagram's bytes can hold, nor than a
// train's header claims. A well-formed train, fully consumed, re-encodes to
// its own bytes.
func FuzzExpandTrain(f *testing.F) {
	f.Add([]byte{})
	f.Add([]byte{0, 0, 0, 1, 0, 10, 'h', 'i'})
	f.Add([]byte{0xFF, 0xFF, 0xFF, 0xFF, 0, 2, 0, 0, 0, 1, 0, 10, 0, 1, 'a', 0, 0})
	// A header claiming 1 000 frames over one record, and a truncated record.
	f.Add([]byte{0xFF, 0xFF, 0xFF, 0xFF, 0x03, 0xE8, 0, 0, 0, 1, 0, 10, 0, 3, 'a', 'b', 'c'})
	f.Add([]byte{0xFF, 0xFF, 0xFF, 0xFF, 0, 1, 0, 0, 0, 1, 0, 10, 0, 9, 'a'})
	// The most frames one datagram holds: empty records up to the train cap.
	const empties = (maxTrainBytes - trainHdr) / trainRecHdr
	most := append([]byte{0xFF, 0xFF, 0xFF, 0xFF, empties >> 8, empties & 0xFF, 0, 0, 0, 1, 0, 10},
		make([]byte, empties*trainRecHdr)...)
	f.Add(most)
	f.Fuzz(func(t *testing.T, raw []byte) {
		if len(raw) > maxPacket {
			return // the reader's buffer truncates anything longer
		}
		parse := func(d []byte) ([]netapi.Packet, error) { return parseDatagram(t, d) }
		encode := func(pkts []netapi.Packet) []byte { return encodeTrain(t, pkts) }
		pkts, ok := wiretest.Contract(t, raw, parse, encode)
		if !ok {
			return
		}
		if !isTrain(raw) {
			if len(pkts) != 1 || len(pkts[0].Data) != len(raw)-frameOverhead {
				t.Fatalf("single frame of %d bytes yielded %d packets", len(raw), len(pkts))
			}
			return
		}
		used := trainHdr
		for _, p := range pkts {
			used += trainRecHdr + len(p.Data)
		}
		claimed := int(raw[4])<<8 | int(raw[5])
		if used > len(raw) || len(pkts) > claimed {
			t.Fatalf("%d-byte train claiming %d yielded %d packets over %d bytes",
				len(raw), claimed, len(pkts), used)
		}
		if used == len(raw) && len(pkts) == claimed && !bytes.Equal(encode(pkts), raw) {
			t.Fatalf("well-formed train re-encodes to other bytes:\n got %x\nwant %x", encode(pkts), raw)
		}
	})
}
