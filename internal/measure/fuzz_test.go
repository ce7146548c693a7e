package measure

import (
	"testing"

	"adaptive/internal/wire/wiretest"
)

// FuzzMeasureParse holds Parse, which compiles the measurement language a
// scenario document's workloads are written in, to the decoder half of the
// document contract (wiretest.Contract; the language has no encoder): it never
// panics and allocates in proportion to the input.
func FuzzMeasureParse(f *testing.F) {
	for _, s := range []string{
		"collect rel.retransmissions, app.* every 50ms",
		"collect rel. EVERY 1s; generate cbr size=160 interval=20ms count=500",
		"generate vbr rate=30 mean=4000 burst=2.5 gop=12 count=90",
		"generate bulk size=1048576 chunk=65536",
		"generate keystroke gap=150ms count=40; generate reqresp size=64 think=1ms count=10",
		";;",
		// Invalid UTF-8 that strings.ToLower lengthens: the "every" clause
		// was once found in the lowered string and sliced out of the original.
		"ColleCt 0000000000000000\x8b00000 everY 0",
	} {
		f.Add([]byte(s))
	}
	parse := func(raw []byte) (*Spec, error) { return Parse(string(raw)) }
	f.Fuzz(func(t *testing.T, raw []byte) {
		wiretest.Contract(t, raw, parse, nil)
	})
}
