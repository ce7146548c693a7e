package wire

import (
	"bytes"
	"math/rand"
	"testing"
)

// byteSum is the reference RFC 1071 checksum: the textbook loop over
// big-endian byte pairs, a zero-padded odd tail, and carries folded at the
// end. internetChecksum must equal it on every input.
func byteSum(b []byte) uint16 {
	var sum uint32
	n := len(b)
	for i := 0; i+1 < n; i += 2 {
		sum += uint32(b[i])<<8 | uint32(b[i+1])
	}
	if n%2 == 1 {
		sum += uint32(b[n-1]) << 8
	}
	for sum>>16 != 0 {
		sum = sum&0xffff + sum>>16
	}
	return ^uint16(sum)
}

func TestInternetChecksumKnownVector(t *testing.T) {
	// RFC 1071 §3: 0001 f203 f4f5 f6f7 sums to ddf2; the checksum is its
	// complement, 220d.
	b := []byte{0x00, 0x01, 0xf2, 0x03, 0xf4, 0xf5, 0xf6, 0xf7}
	if got := internetChecksum(b); got != 0x220d {
		t.Fatalf("internetChecksum = %04x, want 220d", got)
	}
}

func TestInternetChecksumOddLength(t *testing.T) {
	if internetChecksum([]byte{0xab}) != ^uint16(0xab00) {
		t.Fatal("odd-length padding wrong")
	}
}

// TestInternetChecksumMatchesByteSum compares the word-wide sum with the
// byte-pair reference on every length 0–4 096 at every start offset 0–7
// (the loads are unaligned), over random bytes and over all-0xFF, where every
// lane carries and the sum sits on one's-complement negative zero.
func TestInternetChecksumMatchesByteSum(t *testing.T) {
	rng := rand.New(rand.NewSource(1071))
	random := make([]byte, 4096+8)
	rng.Read(random)
	ones := bytes.Repeat([]byte{0xff}, 4096+8)
	zeros := make([]byte, 4096+8)
	for _, in := range []struct {
		name string
		buf  []byte
	}{{"random", random}, {"0xff", ones}, {"zero", zeros}} {
		for off := 0; off < 8; off++ {
			for n := 0; n <= 4096; n++ {
				b := in.buf[off : off+n]
				if got, want := internetChecksum(b), byteSum(b); got != want {
					t.Fatalf("%s, offset %d, length %d: %04x, reference %04x", in.name, off, n, got, want)
				}
			}
		}
	}
}

func TestInternetChecksumZeroAlloc(t *testing.T) {
	b := make([]byte, 1428)
	if allocs := testing.AllocsPerRun(100, func() { internetChecksum(b) }); allocs != 0 {
		t.Fatalf("internetChecksum: %v allocs/op, want 0", allocs)
	}
}

// FuzzInternetChecksum holds the word-wide sum to the byte-pair reference on
// arbitrary bytes.
func FuzzInternetChecksum(f *testing.F) {
	f.Add([]byte{})
	f.Add([]byte{0xab})
	f.Add([]byte{0x00, 0x01, 0xf2, 0x03, 0xf4, 0xf5, 0xf6, 0xf7})
	f.Add(bytes.Repeat([]byte{0xff}, 37))
	f.Fuzz(func(t *testing.T, b []byte) {
		if got, want := internetChecksum(b), byteSum(b); got != want {
			t.Fatalf("internetChecksum(%x) = %04x, reference %04x", b, got, want)
		}
	})
}
