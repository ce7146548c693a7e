package message

import (
	"bytes"
	"testing"
	"testing/quick"
)

func TestAllocAndBytes(t *testing.T) {
	m := Alloc(10, 16)
	if m.Len() != 10 || m.Headroom() != 16 {
		t.Fatalf("len=%d headroom=%d", m.Len(), m.Headroom())
	}
	for _, b := range m.Bytes() {
		if b != 0 {
			t.Fatal("Alloc not zeroed")
		}
	}
}

func TestPushPopRoundTrip(t *testing.T) {
	m := NewFromBytes([]byte("payload"))
	hdr := m.Push(4)
	copy(hdr, "HDR!")
	if m.Len() != 11 {
		t.Fatalf("len after push = %d", m.Len())
	}
	got := m.Pop(4)
	if string(got) != "HDR!" {
		t.Fatalf("popped %q", got)
	}
	if string(m.Bytes()) != "payload" {
		t.Fatalf("payload corrupted: %q", m.Bytes())
	}
}

func TestPushExhaustsHeadroomPanics(t *testing.T) {
	m := Alloc(1, 4)
	defer func() {
		if recover() == nil {
			t.Fatal("Push beyond headroom did not panic")
		}
	}()
	m.Push(5)
}

// TestSplitTrimsTail: splitting at Len()-k cuts a k-byte tail (a trailer)
// off into a view of its own, sharing the buffer.
func TestSplitTrimsTail(t *testing.T) {
	m := NewFromBytes([]byte("bodyTRL"))
	trl := m.Split(m.Len() - 3)
	if string(trl.Bytes()) != "TRL" || string(m.Bytes()) != "body" {
		t.Fatalf("trimmed tail %q, body %q", trl.Bytes(), m.Bytes())
	}
}

func TestCloneSharesBuffer(t *testing.T) {
	m := NewFromBytes([]byte("shared"))
	c := m.Retain()
	if m.Refs() != 2 {
		t.Fatalf("refs = %d after clone", m.Refs())
	}
	if &m.Bytes()[0] != &c.Bytes()[0] {
		t.Fatal("clone copied the buffer")
	}
	c.Release()
	if m.Refs() != 1 {
		t.Fatalf("refs = %d after release", m.Refs())
	}
}

func TestSplitSharesBuffer(t *testing.T) {
	m := NewFromBytes([]byte("frag1frag2"))
	rest := m.Split(5)
	if string(m.Bytes()) != "frag1" || string(rest.Bytes()) != "frag2" {
		t.Fatalf("split: %q / %q", m.Bytes(), rest.Bytes())
	}
	if m.Refs() != 2 {
		t.Fatalf("refs = %d after split", m.Refs())
	}
}

func TestSplitAtEnds(t *testing.T) {
	m := NewFromBytes([]byte("abc"))
	rest := m.Split(3)
	if rest.Len() != 0 || m.Len() != 3 {
		t.Fatalf("split at end: %d / %d", m.Len(), rest.Len())
	}
	rest.Release()
	rest2 := m.Split(0)
	if m.Len() != 0 || rest2.Len() != 3 {
		t.Fatalf("split at start: %d / %d", m.Len(), rest2.Len())
	}
}

func TestOverReleasePanics(t *testing.T) {
	m := NewFromBytes([]byte("x"))
	m.Release()
	defer func() {
		if recover() == nil {
			t.Fatal("double release did not panic")
		}
	}()
	m.Release()
}

// Property: any sequence of Push/Pop pairs preserves the payload.
func TestPushPopProperty(t *testing.T) {
	f := func(payload []byte, hdrs []byte) bool {
		if len(hdrs) > 32 {
			hdrs = hdrs[:32]
		}
		m := NewFromBytes(payload)
		copy(m.Push(len(hdrs)), hdrs)
		got := m.Pop(len(hdrs))
		return bytes.Equal(got, hdrs) && bytes.Equal(m.Bytes(), payload)
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

// Property: Split(i) partitions the payload exactly.
func TestSplitProperty(t *testing.T) {
	f := func(payload []byte, at uint8) bool {
		m := NewFromBytes(payload)
		i := int(at) % (len(payload) + 1)
		rest := m.Split(i)
		return bytes.Equal(m.Bytes(), payload[:i]) && bytes.Equal(rest.Bytes(), payload[i:])
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}
