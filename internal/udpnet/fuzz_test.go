package udpnet

import (
	"bytes"
	"errors"
	"testing"

	"adaptive/internal/netapi"
	"adaptive/internal/wire/wiretest"
)

// parseDatagram is the reader's parse of one wire datagram, kept as the
// packets it yields: expand into a pooled batch, whose packets are views into
// dgram.
func parseDatagram(t *testing.T, dgram []byte) ([]netapi.Packet, error) {
	b := rxBatches.Get().(*rxBatch)
	n := expand(dgram, b)
	pkts := append([]netapi.Packet(nil), b.pkts...)
	b.release()
	if n != len(pkts) {
		t.Fatalf("expand counted %d frames, yielded %d", n, len(pkts))
	}
	if n == 0 {
		return nil, errors.New("no frame")
	}
	return pkts, nil
}

// encodeTrain lays the packets into one train the way a batched endpoint
// writes its open datagram.
func encodeTrain(pkts []netapi.Packet) []byte {
	out := make([]byte, trainHdr)
	putTrainHdr(out, len(pkts), pkts[0].From)
	for _, p := range pkts {
		out = appendRecord(out, p.Data)
	}
	return out
}

// densestTrain is the most frames one datagram can carry: empty records up to
// the train cap, under a header that claims every one of them.
func densestTrain() []byte {
	const empties = (maxTrainBytes - trainHdr) / trainRecHdr
	return append([]byte{0xFF, 0xFF, 0xFF, 0xFF, empties >> 8, empties & 0xFF, 0, 0, 0, 1, 0, 10},
		make([]byte, empties*trainRecHdr)...)
}

// FuzzExpandTrain holds the receive parse of one datagram to the document
// contract (wiretest.Contract: no panic, allocation linear in the input, and
// frames re-encoded as a train parse back to themselves), and checks the
// count: never more packets than the datagram's bytes can hold, than a
// train's header claims, or than maxBatch. A well-formed train, fully
// consumed, re-encodes to its own bytes.
func FuzzExpandTrain(f *testing.F) {
	f.Add([]byte{})
	f.Add([]byte{0, 0, 0, 1, 0, 10, 'h', 'i'})
	f.Add([]byte{0xFF, 0xFF, 0xFF, 0xFF, 0, 2, 0, 0, 0, 1, 0, 10, 0, 1, 'a', 0, 0})
	// A header claiming 1 000 frames over one record, and a truncated record.
	f.Add([]byte{0xFF, 0xFF, 0xFF, 0xFF, 0x03, 0xE8, 0, 0, 0, 1, 0, 10, 0, 3, 'a', 'b', 'c'})
	f.Add([]byte{0xFF, 0xFF, 0xFF, 0xFF, 0, 1, 0, 0, 0, 1, 0, 10, 0, 9, 'a'})
	f.Add(densestTrain())
	f.Fuzz(func(t *testing.T, raw []byte) {
		if len(raw) > maxPacket {
			return // the reader's buffer truncates anything longer
		}
		parse := func(d []byte) ([]netapi.Packet, error) { return parseDatagram(t, d) }
		pkts, ok := wiretest.Contract(t, raw, parse, encodeTrain)
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
		if used > len(raw) || len(pkts) > claimed || len(pkts) > maxBatch {
			t.Fatalf("%d-byte train claiming %d yielded %d packets over %d bytes",
				len(raw), claimed, len(pkts), used)
		}
		if used == len(raw) && len(pkts) == claimed && !bytes.Equal(encodeTrain(pkts), raw) {
			t.Fatalf("well-formed train re-encodes to other bytes:\n got %x\nwant %x", encodeTrain(pkts), raw)
		}
	})
}
