// Package wiretest holds the fuzz contract every TLV document decoder a peer
// can reach is held to (the field tables of internal/wire).
package wiretest

import (
	"reflect"
	"runtime"
	"testing"
)

// A decode may allocate at most allocPerByte per input byte plus
// allocSlack: linear in what the peer sent, so nothing is sized by a count
// off the wire. Each element of a repeated field costs its struct and its
// field table, a few hundred bytes for the smallest (4-byte) occurrence.
const (
	allocPerByte = 256
	allocSlack   = 64 << 10
)

// Contract checks one fuzz input against a document codec: decoding does
// not panic and allocates no more than the input accounts for, and a
// document that decodes re-encodes to one that decodes to the same value —
// decode(encode(decode(x))) == decode(x). A nil encode, for a format with no
// encoder, skips the round trip. It returns the decoded value and whether raw
// decoded, for checks of the format's own.
func Contract[T any](t *testing.T, raw []byte, decode func([]byte) (T, error), encode func(T) []byte) (T, bool) {
	t.Helper()
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	d1, err := decode(raw)
	runtime.ReadMemStats(&after)
	if grew := after.TotalAlloc - before.TotalAlloc; grew > allocSlack+allocPerByte*uint64(len(raw)) {
		t.Fatalf("decoding %d bytes allocated %d", len(raw), grew)
	}
	if err != nil {
		return d1, false // refused cleanly: the property we want
	}
	if encode == nil {
		return d1, true
	}
	d2, err := decode(encode(d1))
	if err != nil {
		t.Fatalf("re-decode of a decoded document failed: %v", err)
	}
	if !reflect.DeepEqual(d2, d1) {
		t.Fatalf("decode(encode(decode(x))) != decode(x):\n got %+v\nwant %+v", d2, d1)
	}
	return d1, true
}
