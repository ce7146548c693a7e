package wire

import (
	"bytes"
	"testing"

	"adaptive/internal/message"
)

func hdrForTest() Header {
	return Header{
		Type: TData, Flags: FlagEOM,
		SrcPort: 7, DstPort: 9, Window: 12,
		ConnID: 0xcafe, Seq: 100, Ack: 99, Aux: 3,
	}
}

// encodeVia captures the packet EncodeTo emits into an independent copy.
func encodeVia(t *testing.T, p *PDU, ck ChecksumKind) []byte {
	t.Helper()
	var out []byte
	if err := EncodeTo(p, ck, func(pkt []byte) error {
		out = append([]byte(nil), pkt...)
		return nil
	}); err != nil {
		t.Fatalf("EncodeTo: %v", err)
	}
	return out
}

func TestEncodeToFastPathInPlace(t *testing.T) {
	payload := message.Alloc(64, message.DefaultHeadroom)
	copy(payload.Bytes(), bytes.Repeat([]byte("ab"), 32))
	before := append([]byte(nil), payload.Bytes()...)
	payloadPtr := &payload.Bytes()[0]
	p := &PDU{Header: hdrForTest(), Payload: payload}

	var sawInPlace bool
	err := EncodeTo(p, CkCRC32, func(pkt []byte) error {
		// Fast path: the packet's payload region aliases the message buffer.
		sawInPlace = &pkt[HeaderLen] == payloadPtr
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	if !sawInPlace {
		t.Fatal("exclusively owned payload with headroom did not encode in place")
	}
	// View fully restored after emit.
	if payload.Len() != 64 || !bytes.Equal(payload.Bytes(), before) {
		t.Fatalf("payload view not restored: len=%d", payload.Len())
	}
	if payload.Headroom() != message.DefaultHeadroom {
		t.Fatalf("headroom not restored: %d", payload.Headroom())
	}
	payload.Release()
}

// A synchronous transport (loopback) can re-enter the protocol from inside
// emit and release the sender's last reference to the payload — e.g. a
// retransmitted packet is delivered and acked in the same call stack, so the
// retransmission buffer drops the message while EncodeTo is still on it.
// The fast path must pin the buffer so it is neither recycled into the pool
// (where a mid-emit allocation could scribble on it) nor flagged as
// use-after-release when the view is restored.
func TestEncodeToReentrantReleaseDuringEmit(t *testing.T) {
	prev := message.SetPoison(true)
	defer message.SetPoison(prev)

	want := bytes.Repeat([]byte{0x3c, 0xc3}, 24)
	payload := message.AllocPooled(len(want), message.DefaultHeadroom)
	copy(payload.Bytes(), want)
	p := &PDU{Header: hdrForTest(), Payload: payload}

	var captured []byte
	err := EncodeTo(p, CkCRC32, func(pkt []byte) error {
		payload.Release() // peer acked synchronously; owner drops its reference
		// Pooled churn mid-emit: without the pin, the just-released buffer
		// could be handed back here while pkt still aliases it.
		scratch := message.AllocPooled(len(want), message.DefaultHeadroom)
		for i := range scratch.Bytes() {
			scratch.Bytes()[i] = 0xFF
		}
		scratch.Release()
		captured = append([]byte(nil), pkt...)
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	got, derr := decode(captured)
	if derr != nil {
		t.Fatalf("decode of packet emitted during reentrant release: %v", derr)
	}
	defer got.ReleasePayload()
	if !bytes.Equal(got.PayloadBytes(), want) {
		t.Fatal("payload corrupted by reentrant release during emit")
	}
}

func TestEncodeToInsufficientHeadroomSlowPath(t *testing.T) {
	// Headroom smaller than HeaderLen forces the scratch-copy path; the
	// result must still decode identically.
	payload := message.Alloc(32, HeaderLen-1)
	for i := range payload.Bytes() {
		payload.Bytes()[i] = byte(i)
	}
	p := &PDU{Header: hdrForTest(), Payload: payload}

	err := EncodeTo(p, CkInternet, func(pkt []byte) error {
		if &pkt[HeaderLen] == &payload.Bytes()[0] {
			t.Fatal("slow path unexpectedly aliased the payload")
		}
		got, derr := decode(pkt)
		if derr != nil {
			t.Fatalf("decode: %v", derr)
		}
		defer got.ReleasePayload()
		if !bytes.Equal(got.PayloadBytes(), payload.Bytes()) {
			t.Fatal("slow-path round trip corrupted payload")
		}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	if payload.Len() != 32 || payload.Headroom() != HeaderLen-1 {
		t.Fatal("slow path modified the payload view")
	}
	payload.Release()
}

func TestEncodeToSharedPayloadSlowPath(t *testing.T) {
	// A split segment shares its buffer: in-place encoding would scribble on
	// the sibling's bytes, so it must take the copy path.
	whole := message.NewFromBytes([]byte("first-half|second-half"))
	rest := whole.Split(11)
	p := &PDU{Header: hdrForTest(), Payload: rest}

	err := EncodeTo(p, CkCRC32, func(pkt []byte) error {
		if &pkt[HeaderLen] == &rest.Bytes()[0] {
			t.Fatal("shared payload encoded in place")
		}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	if string(whole.Bytes()) != "first-half|" || string(rest.Bytes()) != "second-half" {
		t.Fatalf("segments corrupted: %q / %q", whole.Bytes(), rest.Bytes())
	}
	rest.Release()
	whole.Release()
}

func TestEncodeToZeroLengthPayload(t *testing.T) {
	for _, payload := range []*message.Message{nil, message.Alloc(0, message.DefaultHeadroom)} {
		p := &PDU{Header: hdrForTest(), Payload: payload}
		pkt := encodeVia(t, p, CkInternet)
		if len(pkt) != Overhead {
			t.Fatalf("zero-payload packet length %d, want %d", len(pkt), Overhead)
		}
		var got PDU
		if err := DecodeInto(pkt, &got); err != nil {
			t.Fatalf("DecodeInto: %v", err)
		}
		if got.Payload != nil || got.PayloadLen != 0 {
			t.Fatalf("zero-length payload decoded as %v", got.Payload)
		}
		if payload != nil {
			if payload.Len() != 0 {
				t.Fatal("payload view modified")
			}
			payload.Release()
		}
	}
}

func TestDecodeIntoRoundTrip(t *testing.T) {
	for _, ck := range []ChecksumKind{CkNone, CkInternet, CkCRC32} {
		payload := message.PooledFromBytes([]byte("pooled round trip"))
		p := &PDU{Header: hdrForTest(), Payload: payload}
		pkt := encodeVia(t, p, ck)

		var got PDU
		if err := DecodeInto(pkt, &got); err != nil {
			t.Fatalf("%v: DecodeInto: %v", ck, err)
		}
		if got.Header.Type != TData || got.ConnID != 0xcafe || got.Seq != 100 {
			t.Fatalf("%v: header mismatch: %v", ck, &got.Header)
		}
		if string(got.PayloadBytes()) != "pooled round trip" {
			t.Fatalf("%v: payload %q", ck, got.PayloadBytes())
		}
		got.ReleasePayload()
		payload.Release()
	}
}

func TestDecodeIntoErrorLeavesPDUUntouched(t *testing.T) {
	var got PDU
	got.Seq = 777
	if err := DecodeInto([]byte{1, 2, 3}, &got); err != ErrTooShort {
		t.Fatalf("err = %v", err)
	}
	if got.Seq != 777 || got.Payload != nil {
		t.Fatal("DecodeInto modified the PDU on error")
	}
}

func TestDecodeIntoReusesPDU(t *testing.T) {
	var got PDU
	for i := 0; i < 3; i++ {
		payload := message.PooledFromBytes([]byte{byte(i), byte(i + 1)})
		p := &PDU{Header: hdrForTest(), Payload: payload}
		p.Seq = uint32(i)
		pkt := encodeVia(t, p, CkCRC32)
		if err := DecodeInto(pkt, &got); err != nil {
			t.Fatal(err)
		}
		if got.Seq != uint32(i) || got.PayloadBytes()[0] != byte(i) {
			t.Fatalf("iteration %d decoded seq=%d", i, got.Seq)
		}
		got.ReleasePayload()
		payload.Release()
	}
}

// Encode must produce byte-identical packets via fast and slow paths.
func TestEncodePathsAgree(t *testing.T) {
	data := bytes.Repeat([]byte{0x5a, 0xa5}, 100)
	for _, ck := range []ChecksumKind{CkNone, CkInternet, CkCRC32} {
		fast := message.Alloc(len(data), message.DefaultHeadroom)
		copy(fast.Bytes(), data)
		slow := message.Alloc(len(data), 0) // no headroom: scratch path
		copy(slow.Bytes(), data)

		pf := &PDU{Header: hdrForTest(), Payload: fast}
		ps := &PDU{Header: hdrForTest(), Payload: slow}
		bf := encodeVia(t, pf, ck)
		bs := encodeVia(t, ps, ck)
		if !bytes.Equal(bf, bs) {
			t.Fatalf("%v: fast and slow encodings differ", ck)
		}
		fast.Release()
		slow.Release()
	}
}
