package wire

import (
	"bytes"
	"errors"
	"math"
	"reflect"
	"testing"
	"time"
)

// tlvDoc has one field of every Form.
type tlvDoc struct {
	Kind  uint8
	Port  uint16
	Size  int
	Wait  time.Duration
	Rate  float64
	Frac  float64
	A, B  bool
	Name  string
	Blob  []byte
	Subs  []tlvDoc
	Addrs []tlvAddr
	Tags  []string
	Class *uint8
	Once  bool
}

type tlvAddr struct {
	Host uint32
	Rest []byte
}

func (d *tlvDoc) fields() []Field {
	return []Field{
		{Tag: 1, Form: U8, At: &d.Kind},
		{Tag: 2, Form: U16, At: &d.Port},
		{Tag: 3, Form: U32, At: &d.Size},
		{Tag: 4, Form: U64, At: &d.Wait},
		{Tag: 5, Form: Whole, At: &d.Rate},
		{Tag: 6, Form: Nano, At: &d.Frac},
		{Tag: 7, Form: Bit, At: &d.A},
		{Tag: 7, Form: Bit, At: &d.B},
		{Tag: 8, Form: Bytes, At: &d.Name},
		{Tag: 9, Form: Bytes, At: &d.Blob},
		{Tag: 10, Form: Doc, At: &d.Subs, Elem: func(at any) []Field { return at.(*tlvDoc).fields() }},
		{Tag: 11, Form: Packed, At: &d.Addrs, Elem: func(at any) []Field {
			a := at.(*tlvAddr)
			return []Field{{Form: U32, At: &a.Host}, {Form: Bytes, At: &a.Rest}}
		}},
		{Tag: 12, Form: Bytes, At: &d.Tags},
		{Tag: 13, Form: U8, At: &d.Class},
		{Tag: 14, Form: U8, At: &d.Once, Omit: !d.Once},
	}
}

func decodeDoc(b []byte) (tlvDoc, error) {
	var d tlvDoc
	err := Decode(b, d.fields())
	return d, err
}

func fullDoc() tlvDoc {
	class := uint8(3)
	return tlvDoc{
		Kind: 7, Port: 0xcdef, Size: 1 << 20, Wait: 3 * time.Second, Rate: 3e6, Frac: 0.125,
		A: true, Name: "qos", Blob: []byte{1, 2, 3},
		Subs:  []tlvDoc{{Kind: 1, Name: "inner"}, {Size: 9, Once: true}},
		Addrs: []tlvAddr{{Host: 12, Rest: []byte{0, 80}}, {Host: 13}},
		Tags:  []string{"a", "bc"}, Class: &class, Once: true,
	}
}

func TestTLVRoundTrip(t *testing.T) {
	want := fullDoc()
	got, err := decodeDoc(Append(nil, want.fields()))
	if err != nil || !reflect.DeepEqual(got, want) {
		t.Fatalf("round trip: %+v, %v\nwant %+v", got, err, want)
	}
	// Nil pointers, omitted fields and empty repeats stay off the wire; zero
	// scalars do not.
	var zero tlvDoc
	if n := len(Append(nil, zero.fields())); n != 4*9+1+2+4+8+8+8+1 {
		t.Fatalf("zero document encodes to %d bytes", n)
	}
}

// TestTLVEncodingLayout pins the bytes of one field of each fixed width and
// of a packed entry: big-endian, tag | length | value.
func TestTLVEncodingLayout(t *testing.T) {
	d := tlvDoc{Kind: 0xab, Frac: 0.5, B: true, Addrs: []tlvAddr{{Host: 0x01020304, Rest: []byte{9}}}}
	f := d.fields()
	enc := Append(nil, []Field{f[0], f[5], f[6], f[7], f[11]})
	want := []byte{
		0, 1, 0, 1, 0xab,
		0, 6, 0, 8, 0, 0, 0, 0, 0x1d, 0xcd, 0x65, 0,
		0, 7, 0, 1, 2,
		0, 11, 0, 5, 1, 2, 3, 4, 9,
	}
	if !bytes.Equal(enc, want) {
		t.Fatalf("encoding % x\nwant     % x", enc, want)
	}
}

func TestTLVUnknownTagsSkippable(t *testing.T) {
	want := fullDoc()
	enc := append([]byte{0x03, 0xe8, 0, 3, 1, 2, 3}, Append(nil, want.fields())...) // tag 1000, from a later vocabulary
	got, err := decodeDoc(enc)
	if err != nil || !reflect.DeepEqual(got, want) {
		t.Fatalf("known fields lost around an unknown tag: %+v, %v", got, err)
	}
}

// TestTLVTruncation: a document cut anywhere but on a field boundary is
// refused whole.
func TestTLVTruncation(t *testing.T) {
	d := fullDoc()
	enc := Append(nil, d.fields())
	for cut := 1; cut < len(enc); cut++ {
		if _, err := decodeDoc(enc[:cut]); err == nil {
			// A cut on a field boundary is a shorter, well-formed document.
			if rest, err := decodeDoc(enc[cut:]); err != nil {
				t.Fatalf("cut at %d: prefix accepted, suffix %v (%+v)", cut, err, rest)
			}
		} else if !errors.Is(err, errTruncated) {
			t.Fatalf("cut at %d: %v, want truncation", cut, err)
		}
	}
}

// TestTLVWrongWidthRefused: a known tag whose value is not its form's width
// refuses the whole document, nested ones included.
func TestTLVWrongWidthRefused(t *testing.T) {
	for _, bad := range [][]byte{
		{0, 1, 0, 2, 7, 7},                 // U8 carrying 2 bytes
		{0, 4, 0, 4, 0, 0, 0, 1},           // U64 carrying 4
		{0, 7, 0, 0},                       // bits carrying none
		{0, 11, 0, 3, 0, 0, 1},             // packed entry shorter than its fixed part
		{0, 10, 0, 6, 0, 1, 0, 2, 7, 7},    // nested document with a wrong-width field
		{0, 14, 0, 1, 1, 0, 1, 0, 2, 1, 2}, // a good field, then a wrong one
	} {
		if _, err := decodeDoc(bad); !errors.Is(err, errWidth) {
			t.Errorf("% x: %v, want a width error", bad, err)
		}
	}
}

// TestTLVFloatsSaturate: float counts beyond what float64 carries exactly
// decode to the bound, and the bound re-encodes to itself; negative and NaN
// values encode as 0.
func TestTLVFloatsSaturate(t *testing.T) {
	all := []byte{0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff}
	raw := append(append([]byte{0, 5, 0, 8}, all...), append([]byte{0, 6, 0, 8}, all...)...)
	d, err := decodeDoc(raw)
	if err != nil || d.Rate != maxWhole || d.Frac != maxNano/1e9 {
		t.Fatalf("decoded rate %v frac %v, %v", d.Rate, d.Frac, err)
	}
	if again, _ := decodeDoc(Append(nil, d.fields())); again.Rate != d.Rate || again.Frac != d.Frac {
		t.Fatalf("saturated floats drift: %v %v", again.Rate, again.Frac)
	}
	neg := tlvDoc{Rate: -1, Frac: math.NaN()}
	if got, _ := decodeDoc(Append(nil, neg.fields())); got.Rate != 0 || got.Frac != 0 {
		t.Fatalf("negative / NaN floats decode as %v %v", got.Rate, got.Frac)
	}
}
