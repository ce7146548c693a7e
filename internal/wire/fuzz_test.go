package wire

import (
	"bytes"
	"testing"

	"adaptive/internal/message"
)

// FuzzWireRoundTrip throws arbitrary bytes at the datapath codec, the parser
// every packet off a socket meets first. Properties: DecodeInto never panics
// and leaves the PDU alone when it refuses; whatever it accepts, EncodeTo
// emits again byte for byte on both of its paths — in place, around the
// decoded payload (unshared, with headroom: how every data PDU is sent), and
// through scratch, with a second reference held on that payload — and
// afterwards every pooled buffer is back (poison mode on throughout, so a
// write through a stale reference panics).
func FuzzWireRoundTrip(f *testing.F) {
	defer message.SetPoison(message.SetPoison(true))
	for typ := TData; typ <= TControl; typ++ {
		for _, ck := range []ChecksumKind{CkNone, CkInternet, CkCRC32} {
			p := &PDU{Header: hdrForTest(), Payload: message.PooledFromBytes([]byte("seed payload"))}
			p.Type = typ
			if err := EncodeTo(p, ck, func(pkt []byte) error {
				f.Add(bytes.Clone(pkt))
				return nil
			}); err != nil {
				f.Fatal(err)
			}
			p.ReleasePayload()
		}
	}
	f.Add([]byte{})
	f.Add(make([]byte, Overhead-1))
	f.Add(append([]byte{Version << 4}, make([]byte, Overhead-1)...)) // header-only, no checksum

	f.Fuzz(func(t *testing.T, pkt []byte) {
		start := message.Outstanding()
		var p PDU
		if err := DecodeInto(pkt, &p); err != nil {
			if p != (PDU{}) {
				t.Fatalf("refused with %v, yet the PDU was written: %+v", err, p)
			}
			return
		}
		reencode := func(path string, wantInPlace bool) {
			if err := EncodeTo(&p, p.Checksum(), func(out []byte) error {
				if !bytes.Equal(out, pkt) {
					t.Fatalf("%s path emitted\n%x\nfor\n%x", path, out, pkt)
				}
				if inPlace := p.PayloadLen > 0 && &out[HeaderLen] == &p.PayloadBytes()[0]; inPlace != wantInPlace {
					t.Fatalf("%s path: payload encoded in place = %v", path, inPlace)
				}
				return nil
			}); err != nil {
				t.Fatal(err)
			}
		}
		reencode("in-place", p.Payload != nil)
		if p.Payload != nil {
			held := p.Payload.Retain()
			reencode("scratch", false)
			held.Release()
			if !bytes.Equal(p.PayloadBytes(), pkt[HeaderLen:len(pkt)-TrailerLen]) {
				t.Fatal("encoding modified the payload view")
			}
		}
		p.ReleasePayload()
		if got := message.Outstanding(); got != start {
			t.Fatalf("%d pooled buffers outstanding, %d before the packet", got, start)
		}
	})
}
