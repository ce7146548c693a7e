package reliable

import (
	"bytes"
	"encoding/binary"
	"math/rand"
	"testing"
)

// byteXorInto is the byte-at-a-time fold xorInto replaced, kept as its oracle.
func byteXorInto(acc []byte, payload []byte, eom bool) {
	word := uint16(len(payload))
	if eom {
		word |= 0x8000
	}
	var lenb [2]byte
	binary.BigEndian.PutUint16(lenb[:], word)
	acc[0] ^= lenb[0]
	acc[1] ^= lenb[1]
	for i, b := range payload {
		acc[2+i] ^= b
	}
}

// TestXorIntoMatchesByteLoop folds seeded groups of payloads — every length
// from empty to a full block, odd lengths, accumulators and payloads starting
// at every alignment within a word — through the word-wide fold and the byte
// loop, with the end-of-message bit set at random, and compares the parity
// blocks after every member.
func TestXorIntoMatchesByteLoop(t *testing.T) {
	const block = 2 + 1500
	rng := rand.New(rand.NewSource(92))
	src := make([]byte, 8+block)
	for group := 0; group < 400; group++ {
		accOff, want := rng.Intn(8), make([]byte, block)
		accBuf := make([]byte, 8+block)
		acc := accBuf[accOff : accOff+block] // the accumulator's own alignment varies too
		for member := 0; member < 1+rng.Intn(8); member++ {
			n := rng.Intn(block - 1)
			switch rng.Intn(4) {
			case 0:
				n = rng.Intn(17) // short: shorter than a word, and empty
			case 1:
				n = block - 2 - rng.Intn(9) // at and just under the full block
			}
			off := rng.Intn(8)
			payload := src[off : off+n]
			rng.Read(payload)
			eom := rng.Intn(2) == 0
			xorInto(acc, payload, eom)
			byteXorInto(want, payload, eom)
			if !bytes.Equal(acc, want) {
				t.Fatalf("group %d member %d: len %d, payload offset %d, acc offset %d, eom %v: parity differs",
					group, member, n, off, accOff, eom)
			}
		}
		if !bytes.Equal(accBuf[:accOff], make([]byte, accOff)) || !bytes.Equal(accBuf[accOff+block:], make([]byte, 8-accOff)) {
			t.Fatalf("group %d: fold wrote outside the accumulator", group)
		}
	}
}
