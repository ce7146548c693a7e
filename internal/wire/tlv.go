package wire

import (
	"encoding/binary"
	"errors"
	"fmt"
	"math"
	"reflect"
)

// TLV documents. Every control document in the system — the SCS
// (mechanism.Spec), the ACD and its TSA rules, MANTTS signals, control-plane
// messages and the hand-off record — is a sequence of fields
//
//	tag uint16 | length uint16 | value [length]byte
//
// declared once, as a table of Fields: the tag, the Form (width and encoding
// on the wire) and the Go value the field lives in. Append and Decode walk
// the table; no document has an encoder or decoder of its own. To add a
// field, add it to the struct and one line to its table; tags are wire
// artifacts and are never renumbered. A table is a fixed-size array its
// document returns by value, so encoding and decoding allocate no table.
//
// Every document decodes by the same rules:
//   - an unknown tag is skipped, which is what lets two MANTTS entities with
//     different policy vocabularies still negotiate (ADAPTIVE §4.1.1);
//   - a truncated field, or a known one whose value is not its form's width,
//     refuses the whole document;
//   - a scalar tag that repeats keeps its last value; a repeated field gains
//     one element per occurrence.
//
// Decoding allocates only copies of the input's bytes and the elements they
// encode, so what a peer can make a decoder hold is bounded by what it sent.

var (
	errTruncated = errors.New("wire: truncated TLV")
	errWidth     = errors.New("wire: TLV value of the wrong width")
)

// Form is how a field's value is laid out on the wire.
type Form uint8

const (
	U8     Form = iota + 1 // an integer or a bool, 1 byte
	U16                    // an integer, 2 bytes
	U32                    // an integer, 4 bytes
	U64                    // an integer or a time.Duration, 8 bytes
	Whole                  // a float64 as a whole number of units, 8 bytes
	Nano                   // a float64 as a whole number of nano-units, 8 bytes
	Bit                    // a bool; adjacent Bit lines sharing a tag are the bits of one byte, in table order
	Bytes                  // a string or a []byte of any length; in a Packed layout, the rest
	Doc                    // a nested TLV document: Elem lists its fields
	Packed                 // a nested untagged layout: Elem lists its fields, back to back
)

var width = [...]int{U8: 1, U16: 2, U32: 4, U64: 8, Whole: 8, Nano: 8}

// Floats travel as unsigned counts and saturate at the largest count the
// float64 conversion carries exactly both ways, so what decodes re-encodes
// to itself.
const (
	maxWhole = 1 << 53
	maxNano  = 1 << 50
)

// Field is one line of a document's table.
type Field struct {
	// At points to the field's value. A pointer to a slice (other than a
	// []byte) repeats the field once per element; a pointer to a nil pointer
	// leaves the field out, and decoding allocates the pointee.
	At any
	// Elem, for Doc and Packed, lists the fields of the element at points to.
	Elem func(at any) []Field
	Tag  uint16
	Form Form
	// Omit leaves the field out of this encoding (Bit lines are always
	// written): tables are built from the value they encode, so a field a
	// message does not carry can say so.
	Omit bool
}

// Append appends the fields to b as a TLV document, in table order. A b
// without capacity is sized for the table first.
func Append(b []byte, fields []Field) []byte {
	if cap(b) == 0 {
		b = make([]byte, 0, 16*len(fields))
	}
	bit := 0
	for i, f := range fields {
		if f.Form == Bit {
			if i > 0 && fields[i-1].Form == Bit && fields[i-1].Tag == f.Tag {
				bit++
			} else {
				bit = 0
				b = append(binary.BigEndian.AppendUint16(b, f.Tag), 0, 1, 0)
			}
			if *f.At.(*bool) {
				b[len(b)-1] |= 1 << bit
			}
			continue
		}
		if f.Omit {
			continue
		}
		v := target(f)
		switch {
		case v.Kind() == reflect.Pointer:
			if !v.IsNil() {
				b = appendTLV(b, f, v.Elem())
			}
		case repeated(v):
			for k := 0; k < v.Len(); k++ {
				b = appendTLV(b, f, v.Index(k))
			}
		default:
			b = appendTLV(b, f, v)
		}
	}
	return b
}

func appendTLV(b []byte, f Field, v reflect.Value) []byte {
	b = binary.BigEndian.AppendUint16(b, f.Tag)
	at := len(b)
	b = appendValue(append(b, 0, 0), f, v)
	n := len(b) - at - 2
	if n > math.MaxUint16 {
		panic(fmt.Sprintf("wire: TLV value too large (%d)", n))
	}
	binary.BigEndian.PutUint16(b[at:], uint16(n))
	return b
}

// appendValue appends v's value without tag or length.
func appendValue(b []byte, f Field, v reflect.Value) []byte {
	switch f.Form {
	case Bytes:
		if v.Kind() == reflect.String {
			return append(b, v.String()...)
		}
		return append(b, v.Bytes()...)
	case Doc:
		return Append(b, f.Elem(v.Addr().Interface()))
	case Packed:
		for _, e := range f.Elem(v.Addr().Interface()) {
			b = appendValue(b, e, target(e))
		}
		return b
	}
	u := toWire(f, v)
	for i := width[f.Form] - 1; i >= 0; i-- {
		b = append(b, byte(u>>(8*i)))
	}
	return b
}

// Decode reads a TLV document into the values its table points to.
func Decode(b []byte, fields []Field) error {
	for len(b) > 0 {
		if len(b) < 4 {
			return errTruncated
		}
		tag, n := binary.BigEndian.Uint16(b), 4+int(binary.BigEndian.Uint16(b[2:]))
		if len(b) < n {
			return errTruncated
		}
		bit := 0
		for _, f := range fields {
			if f.Tag != tag {
				continue
			}
			if f.Form != Bit {
				if err := decodeField(f, b[4:n]); err != nil {
					return err
				}
				break
			}
			if n != 5 {
				return errWidth
			}
			*f.At.(*bool) = b[4]>>bit&1 != 0
			bit++
		}
		b = b[n:]
	}
	return nil
}

// decodeField stores one occurrence of f.
func decodeField(f Field, val []byte) error {
	v := target(f)
	switch {
	case v.Kind() == reflect.Pointer:
		if v.IsNil() {
			v.Set(reflect.New(v.Type().Elem()))
		}
		v = v.Elem()
	case repeated(v):
		v.Set(reflect.Append(v, reflect.Zero(v.Type().Elem())))
		v = v.Index(v.Len() - 1)
	}
	rest, err := decodeValue(f, v, val)
	if err == nil && len(rest) > 0 {
		err = errWidth
	}
	return err
}

// decodeValue reads v's value from the front of val and returns what
// follows it.
func decodeValue(f Field, v reflect.Value, val []byte) ([]byte, error) {
	switch f.Form {
	case Bytes:
		if v.Kind() == reflect.String {
			v.SetString(string(val))
		} else {
			v.SetBytes(append([]byte(nil), val...))
		}
		return nil, nil
	case Doc:
		return nil, Decode(val, f.Elem(v.Addr().Interface()))
	case Packed:
		var err error
		for _, e := range f.Elem(v.Addr().Interface()) {
			if val, err = decodeValue(e, target(e), val); err != nil {
				return nil, err
			}
		}
		return val, nil
	}
	w := width[f.Form]
	if len(val) < w {
		return nil, errWidth
	}
	var u uint64
	for _, c := range val[:w] {
		u = u<<8 | uint64(c)
	}
	fromWire(f, v, u)
	return val[w:], nil
}

// target is the value f.At points to.
func target(f Field) reflect.Value { return reflect.ValueOf(f.At).Elem() }

// repeated reports whether v is a slice whose elements are occurrences of
// its field.
func repeated(v reflect.Value) bool {
	return v.Kind() == reflect.Slice && v.Type().Elem().Kind() != reflect.Uint8
}

// toWire is v's value as the unsigned count f's form writes.
func toWire(f Field, v reflect.Value) uint64 {
	switch {
	case f.Form == Whole:
		return uint64(saturate(v.Float(), maxWhole))
	case f.Form == Nano:
		return uint64(math.Round(saturate(v.Float()*1e9, maxNano)))
	case v.Kind() == reflect.Bool:
		if v.Bool() {
			return 1
		}
		return 0
	case v.CanInt():
		return uint64(v.Int())
	}
	return v.Uint()
}

// fromWire stores u, read for f, into v.
func fromWire(f Field, v reflect.Value, u uint64) {
	switch {
	case f.Form == Whole:
		v.SetFloat(float64(min(u, maxWhole)))
	case f.Form == Nano:
		v.SetFloat(float64(min(u, maxNano)) / 1e9)
	case v.Kind() == reflect.Bool:
		v.SetBool(u != 0)
	case v.CanInt():
		v.SetInt(int64(u))
	default:
		v.SetUint(u)
	}
}

// saturate bounds x to [0, max]; NaN is 0.
func saturate(x, max float64) float64 {
	if !(x > 0) {
		return 0
	}
	return math.Min(x, max)
}
