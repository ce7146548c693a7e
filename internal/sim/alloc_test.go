package sim

import (
	"testing"
	"time"
)

// TestKernelZeroAlloc pins the event kernel at zero heap allocations per
// event once its pools are warm: plain schedule-and-fire, and the churn a
// transport generates when every data PDU arms an RTO that an ack usually
// stops before it fires.
func TestKernelZeroAlloc(t *testing.T) {
	k := NewKernel(1)
	nop := func() {}
	fire := func() {
		k.Schedule(time.Microsecond, nop)
		k.Run()
	}
	churn := func() {
		rto := k.Schedule(time.Millisecond, nop)
		k.Schedule(time.Microsecond, nop)
		k.RunFor(2 * time.Microsecond)
		rto.Stop()
		k.Run()
	}
	for name, op := range map[string]func(){"schedule+fire": fire, "cancel+reschedule": churn} {
		op() // warm the event pool
		if allocs := testing.AllocsPerRun(1000, op); allocs != 0 {
			t.Errorf("%s: %v allocs/op, want 0", name, allocs)
		}
	}
}
