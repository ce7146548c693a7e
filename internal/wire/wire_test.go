package wire

import (
	"bytes"
	"testing"
	"testing/quick"

	"adaptive/internal/message"
)

// encode returns a private copy of the packet EncodeTo emits for p.
func encode(p *PDU, kind ChecksumKind) []byte {
	var out []byte
	EncodeTo(p, kind, func(pkt []byte) error {
		out = append([]byte(nil), pkt...)
		return nil
	})
	return out
}

// decode parses a packet into a fresh PDU; nil on verification failure.
func decode(pkt []byte) (*PDU, error) {
	p := new(PDU)
	if err := DecodeInto(pkt, p); err != nil {
		return nil, err
	}
	return p, nil
}

func TestEncodeDecodeRoundTrip(t *testing.T) {
	for _, ck := range []ChecksumKind{CkNone, CkInternet, CkCRC32} {
		p := &PDU{
			Header: Header{
				Type: TData, Flags: FlagEOM,
				SrcPort: 100, DstPort: 200, Window: 32,
				ConnID: 0xdeadbeef, Seq: 42, Ack: 41, Aux: 7,
			},
			Payload: message.NewFromBytes([]byte("hello adaptive")),
		}
		pkt := encode(p, ck)
		got, err := decode(pkt)
		if err != nil {
			t.Fatalf("%v: decode: %v", ck, err)
		}
		if got.Type != TData || got.ConnID != 0xdeadbeef || got.Seq != 42 ||
			got.Ack != 41 || got.Window != 32 || got.Aux != 7 ||
			got.SrcPort != 100 || got.DstPort != 200 {
			t.Fatalf("%v: header mismatch: %v", ck, &got.Header)
		}
		if got.Flags&FlagEOM == 0 {
			t.Fatalf("%v: EOM flag lost", ck)
		}
		if string(got.PayloadBytes()) != "hello adaptive" {
			t.Fatalf("%v: payload %q", ck, got.PayloadBytes())
		}
		if got.Checksum() != ck {
			t.Fatalf("checksum kind %v != %v", got.Checksum(), ck)
		}
	}
}

func TestHeaderOnlyPDU(t *testing.T) {
	p := &PDU{Header: Header{Type: TAck, Ack: 9, Window: 16}}
	pkt := encode(p, CkInternet)
	if len(pkt) != Overhead {
		t.Fatalf("ack PDU length %d, want %d", len(pkt), Overhead)
	}
	got, err := decode(pkt)
	if err != nil {
		t.Fatal(err)
	}
	if got.Payload != nil || got.Ack != 9 {
		t.Fatalf("decoded ack: %v payload=%v", &got.Header, got.Payload)
	}
}

func TestCorruptionDetected(t *testing.T) {
	for _, ck := range []ChecksumKind{CkInternet, CkCRC32} {
		p := &PDU{Header: Header{Type: TData, Seq: 1}, Payload: message.NewFromBytes(make([]byte, 256))}
		pkt := encode(p, ck)
		// Flip one bit in every position and confirm detection.
		misses := 0
		for i := range pkt {
			pkt[i] ^= 0x10
			if _, err := decode(pkt); err == nil {
				misses++
			}
			pkt[i] ^= 0x10
		}
		if misses > 0 {
			t.Fatalf("%v: %d single-bit corruptions undetected", ck, misses)
		}
	}
}

func TestNoChecksumAcceptsCorruptPayload(t *testing.T) {
	p := &PDU{Header: Header{Type: TData, Seq: 1}, Payload: message.NewFromBytes([]byte("abcd"))}
	pkt := encode(p, CkNone)
	pkt[HeaderLen] ^= 0xff // corrupt payload only
	if _, err := decode(pkt); err != nil {
		t.Fatalf("CkNone rejected corrupt payload: %v", err)
	}
}

func TestDecodeErrors(t *testing.T) {
	if _, err := decode(make([]byte, Overhead-1)); err != ErrTooShort {
		t.Fatalf("short packet: %v", err)
	}
	p := &PDU{Header: Header{Type: TData}}
	pkt := encode(p, CkCRC32)
	pkt[0] = 0xF0 | pkt[0]&0x0f // bogus version
	if _, err := decode(pkt); err != ErrBadVersion {
		t.Fatalf("bad version: %v", err)
	}
}

func TestPayloadLengthMismatch(t *testing.T) {
	p := &PDU{Header: Header{Type: TData}, Payload: message.NewFromBytes([]byte("1234"))}
	pkt := encode(p, CkNone)
	pkt = append(pkt, 0, 0, 0, 0) // stretch the packet
	if _, err := decode(pkt); err != ErrBadLength {
		t.Fatalf("length mismatch: %v", err)
	}
}

func TestEncodeDoesNotConsumePayload(t *testing.T) {
	payload := message.NewFromBytes([]byte("retransmit me"))
	p := &PDU{Header: Header{Type: TData, Seq: 1}, Payload: payload}
	pkt1 := encode(p, CkCRC32)
	pkt2 := encode(p, CkCRC32) // e.g. a retransmission
	if !bytes.Equal(pkt1, pkt2) {
		t.Fatal("second encode differs")
	}
	if string(payload.Bytes()) != "retransmit me" {
		t.Fatal("encode mutated the retained payload")
	}
}

func TestChecksumKindFlagBits(t *testing.T) {
	var h Header
	h.Flags = FlagEOM | FlagMcast
	h.SetChecksum(CkCRC32)
	if h.Checksum() != CkCRC32 {
		t.Fatalf("checksum read back %v", h.Checksum())
	}
	if h.Flags&FlagEOM == 0 || h.Flags&FlagMcast == 0 {
		t.Fatal("SetChecksum clobbered other flags")
	}
}

// Property: encode/decode round-trips arbitrary headers and payloads.
func TestRoundTripProperty(t *testing.T) {
	f := func(seq, ack, conn uint32, win, aux uint16, payload []byte) bool {
		if len(payload) > 60000 {
			payload = payload[:60000]
		}
		p := &PDU{
			Header:  Header{Type: TData, Seq: seq, Ack: ack, ConnID: conn, Window: win, Aux: aux},
			Payload: message.NewFromBytes(payload),
		}
		pkt := encode(p, CkCRC32)
		got, err := decode(pkt)
		if err != nil {
			return false
		}
		return got.Seq == seq && got.Ack == ack && got.ConnID == conn &&
			got.Window == win && got.Aux == aux &&
			bytes.Equal(got.PayloadBytes(), payload)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 50}); err != nil {
		t.Fatal(err)
	}
}

// Property: Decode never panics and never accepts random garbage of any
// length (fuzz-style robustness for the demultiplexer's front door).
func TestDecodeGarbageNeverPanicsProperty(t *testing.T) {
	f := func(pkt []byte) bool {
		defer func() {
			if recover() != nil {
				t.Fatalf("Decode panicked on %x", pkt)
			}
		}()
		p, err := decode(pkt)
		if err != nil {
			return p == nil
		}
		// Acceptance requires a coherent packet; verify the invariants
		// Decode promises.
		return int(p.PayloadLen) == len(pkt)-Overhead
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 2000}); err != nil {
		t.Fatal(err)
	}
}

// Property: any single-bit flip anywhere in a CRC32-protected packet is
// rejected (exhaustive over positions for a sampled packet).
func TestDecodeBitFlipProperty(t *testing.T) {
	f := func(payload []byte, seq uint32, bit uint16) bool {
		if len(payload) > 4096 {
			payload = payload[:4096]
		}
		p := &PDU{Header: Header{Type: TData, Seq: seq}, Payload: message.NewFromBytes(payload)}
		pkt := encode(p, CkCRC32)
		p.ReleasePayload()
		idx := int(bit) % (len(pkt) * 8)
		pkt[idx/8] ^= 1 << (idx % 8)
		_, err := decode(pkt)
		return err != nil
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 500}); err != nil {
		t.Fatal(err)
	}
}
