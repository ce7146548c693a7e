package message

import "testing"

// TestHeaderOpsZeroAlloc pins Push/Pop — what every layer does to every PDU
// to add and strip its header — at zero heap allocations.
func TestHeaderOpsZeroAlloc(t *testing.T) {
	m := Alloc(1400, 64)
	if allocs := testing.AllocsPerRun(1000, func() {
		m.Push(32)
		m.Pop(32)
	}); allocs != 0 {
		t.Fatalf("Push+Pop: %v allocs/op, want 0", allocs)
	}
}

// TestSplitCloneAllocBudget pins the fragmentation path: an unpooled Alloc,
// a Split and a Retain of the tail (a second view of it), all released, cost
// at most two heap objects (the buffer and its view); Split and Retain
// themselves share the buffer and take their views from the pool.
func TestSplitCloneAllocBudget(t *testing.T) {
	if allocs := testing.AllocsPerRun(1000, func() {
		m := Alloc(1400, 64)
		rest := m.Split(700)
		c := rest.Retain()
		c.Release()
		rest.Release()
		m.Release()
	}); allocs > 2 {
		t.Fatalf("Alloc+Split+Retain: %v allocs/op, want <= 2", allocs)
	}
}
