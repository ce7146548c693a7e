package wire

import (
	"encoding/binary"
	"hash/crc32"
	"math/bits"
)

// checksum computes the trailer value for body under the given kind. The
// trailer is always 4 bytes on the wire; the 16-bit Internet checksum
// occupies the low half (high half zero) to keep the trailer word-aligned.
func checksum(kind ChecksumKind, body []byte) uint32 {
	switch kind {
	case CkNone:
		return 0
	case CkInternet:
		return uint32(internetChecksum(body))
	case CkCRC32:
		return crc32.ChecksumIEEE(body)
	default:
		return 0
	}
}

// internetChecksum is the RFC 1071 16-bit one's-complement sum, computed
// eight bytes at a time. It leans on two properties RFC 1071 §2 states: the
// sum may be taken over wider words with the carries added back at the end
// (64-bit words with end-around carry hold four 16-bit lanes, and 2^16 ≡ 1
// modulo 0xFFFF), and it is byte-order independent (summing the words
// little-endian yields the big-endian sum byte-swapped). So the words are
// loaded little-endian, summed with carry, folded to 16 bits and swapped
// once. The result equals the byte-pair loop's for every input.
func internetChecksum(b []byte) uint16 {
	var sum, c uint64
	for len(b) >= 64 {
		sum, c = bits.Add64(sum, binary.LittleEndian.Uint64(b), c)
		sum, c = bits.Add64(sum, binary.LittleEndian.Uint64(b[8:]), c)
		sum, c = bits.Add64(sum, binary.LittleEndian.Uint64(b[16:]), c)
		sum, c = bits.Add64(sum, binary.LittleEndian.Uint64(b[24:]), c)
		sum, c = bits.Add64(sum, binary.LittleEndian.Uint64(b[32:]), c)
		sum, c = bits.Add64(sum, binary.LittleEndian.Uint64(b[40:]), c)
		sum, c = bits.Add64(sum, binary.LittleEndian.Uint64(b[48:]), c)
		sum, c = bits.Add64(sum, binary.LittleEndian.Uint64(b[56:]), c)
		b = b[64:]
	}
	for len(b) >= 8 {
		sum, c = bits.Add64(sum, binary.LittleEndian.Uint64(b), c)
		b = b[8:]
	}
	if len(b) >= 4 {
		sum, c = bits.Add64(sum, uint64(binary.LittleEndian.Uint32(b)), c)
		b = b[4:]
	}
	if len(b) >= 2 {
		sum, c = bits.Add64(sum, uint64(binary.LittleEndian.Uint16(b)), c)
		b = b[2:]
	}
	if len(b) == 1 {
		// The odd byte is the high byte of a zero-padded big-endian word:
		// the low byte of its little-endian lane.
		sum, c = bits.Add64(sum, uint64(b[0]), c)
	}
	// Fold 64 → 16 bits with end-around carry; the pending carry is one more
	// unit (2^64 ≡ 1 modulo 0xFFFF). The first fold is < 2^33, so no overflow.
	s := sum>>32 + sum&0xffffffff + c
	for s>>16 != 0 {
		s = s>>16 + s&0xffff
	}
	return ^bits.ReverseBytes16(uint16(s))
}
