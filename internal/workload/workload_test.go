package workload

import (
	"testing"
	"time"

	"adaptive/internal/event"
	"adaptive/internal/message"
	"adaptive/internal/netsim"
	"adaptive/internal/session"
	"adaptive/internal/sim"
)

// collect is a Sender that can feed deliveries straight into a meter,
// optionally dropping or splitting messages.
type collect struct {
	meter   *Meter
	dropIdx map[int]bool
	split   int // split payloads into chunks of this size (0 = whole)
	n       int
	sent    [][]byte
}

func (c *collect) Send(data []byte) error {
	i := c.n
	c.n++
	c.sent = append(c.sent, data)
	if c.dropIdx != nil && c.dropIdx[i] {
		return nil
	}
	if c.meter == nil {
		return nil
	}
	deliver := func(chunk []byte, eom bool) {
		c.meter.OnDeliver(session.Delivery{Msg: message.NewFromBytes(chunk), EOM: eom})
	}
	if c.split <= 0 || len(data) <= c.split {
		deliver(data, true)
		return nil
	}
	for off := 0; off < len(data); off += c.split {
		end := off + c.split
		if end > len(data) {
			end = len(data)
		}
		deliver(data[off:end], end == len(data))
	}
	return nil
}

func rig() (*sim.Kernel, *event.Manager) {
	k := sim.NewKernel(9)
	n := netsim.New(k)
	return k, event.NewManager(n.Clock())
}

func TestCBRCadenceAndCount(t *testing.T) {
	k, timers := rig()
	out := &collect{}
	g := &CBR{Timers: timers, Out: out, MsgSize: 160, Interval: 20 * time.Millisecond}
	g.Start(50)
	k.RunUntil(10 * time.Second)
	if g.Generated != 50 || len(out.sent) != 50 {
		t.Fatalf("generated %d", g.Generated)
	}
	if len(out.sent[0]) != 160 {
		t.Fatalf("size %d", len(out.sent[0]))
	}
}

func TestCBRStop(t *testing.T) {
	k, timers := rig()
	out := &collect{}
	g := &CBR{Timers: timers, Out: out, MsgSize: 10, Interval: time.Millisecond}
	g.Start(0)
	k.RunUntil(10 * time.Millisecond)
	g.Stop()
	n := g.Generated
	k.RunUntil(time.Second)
	if g.Generated != n {
		t.Fatal("CBR kept generating after Stop")
	}
}

func TestVBRMeanAndBurst(t *testing.T) {
	k, timers := rig()
	out := &collect{}
	g := &VBR{Timers: timers, Out: out, FrameRate: 30, MeanSize: 9000, Burst: 4, GroupLen: 12}
	g.Start(120)
	k.RunUntil(time.Minute)
	if g.Generated != 120 {
		t.Fatalf("generated %d", g.Generated)
	}
	mean := float64(g.BytesOut) / 120
	if mean < 8500 || mean > 9500 {
		t.Fatalf("mean frame %v, want ~9000", mean)
	}
	// Intra frames 4x the mean appear once per group.
	intra := 0
	for _, f := range out.sent {
		if len(f) == 36000 {
			intra++
		}
	}
	if intra != 10 {
		t.Fatalf("%d intra frames in 120 (GOP 12)", intra)
	}
}

func TestVBRPacingNoDrift(t *testing.T) {
	k, timers := rig()
	// 7001 fps puts a large fractional nanosecond in the frame interval
	// (1e9/7001 = 142836.73...ns). A periodic timer truncates that to whole
	// nanoseconds and compounds the error every frame, which at this rate
	// emits several extra frames per simulated minute. Absolute deadlines
	// keep the count at rate*60 within rounding of the final boundary.
	const rate = 7001.0
	g := &VBR{
		Timers: timers, Out: senderFunc(func([]byte) error { return nil }),
		FrameRate: rate, MeanSize: 64, Burst: 2, GroupLen: 12,
	}
	g.Start(0)
	k.RunUntil(time.Minute)
	g.Stop()
	want := uint64(rate * 60)
	if g.Generated < want-1 || g.Generated > want+1 {
		t.Fatalf("frames over a simulated minute = %d, want %d +/-1", g.Generated, want)
	}
}

func TestVBRStopAndTotal(t *testing.T) {
	k, timers := rig()
	out := &collect{}
	g := &VBR{Timers: timers, Out: out, FrameRate: 30, MeanSize: 1000, Burst: 2, GroupLen: 6}
	g.Start(10)
	k.RunUntil(10 * time.Second)
	if g.Generated != 10 {
		t.Fatalf("generated %d with total=10", g.Generated)
	}
	g2 := &VBR{Timers: timers, Out: out, FrameRate: 30, MeanSize: 1000, Burst: 2, GroupLen: 6}
	g2.Start(0)
	k.RunUntil(k.Now() + 100*time.Millisecond)
	g2.Stop()
	n := g2.Generated
	k.RunUntil(k.Now() + time.Second)
	if g2.Generated != n {
		t.Fatal("VBR kept generating after Stop")
	}
}

func TestBulkChunking(t *testing.T) {
	k, _ := rig()
	out := &collect{}
	g := &Bulk{Out: out, TotalSize: 2500, ChunkSize: 1000}
	g.Start(k)
	if g.Generated != 3 {
		t.Fatalf("chunks %d", g.Generated)
	}
	if len(out.sent[2]) != 500 {
		t.Fatalf("tail chunk %d", len(out.sent[2]))
	}
}

func TestKeystrokeGaps(t *testing.T) {
	k, timers := rig()
	out := &collect{}
	g := &Keystroke{Timers: timers, Out: out, MeanGap: 50 * time.Millisecond, Seed: 3}
	g.Start(100)
	k.RunUntil(time.Minute)
	if g.Generated != 100 {
		t.Fatalf("generated %d", g.Generated)
	}
	// Stop ends emission between two keystrokes.
	g = &Keystroke{Timers: timers, Out: out, MeanGap: 50 * time.Millisecond, Seed: 3}
	g.Start(100)
	k.RunFor(time.Second)
	g.Stop()
	stopped := g.Generated
	k.RunFor(time.Minute)
	if stopped == 0 || stopped >= 100 || g.Generated != stopped {
		t.Fatalf("generated %d at Stop, %d a minute later", stopped, g.Generated)
	}
}

func TestReqRespSequencing(t *testing.T) {
	k, timers := rig()
	// Echo: every request produces one response delivered back.
	var rr *ReqResp
	echo := &collect{}
	rr = &ReqResp{Timers: timers, Out: senderFunc(func(data []byte) error {
		echo.sent = append(echo.sent, data)
		// Respond after 5ms.
		timers.Schedule(5*time.Millisecond, func() {
			rr.OnResponse(session.Delivery{Msg: message.NewFromBytes(data), EOM: true})
		})
		return nil
	}), ReqSize: 64, Think: 10 * time.Millisecond}
	done := false
	rr.Done = func() { done = true }
	rr.Start(20)
	k.RunUntil(10 * time.Second)
	if rr.Completed != 20 || !done {
		t.Fatalf("completed %d done=%v", rr.Completed, done)
	}
	if rr.RespTimes.Count != 20 {
		t.Fatalf("%d response samples", rr.RespTimes.Count)
	}
	if m := rr.RespTimes.Mean(); m < 0.004 || m > 0.007 {
		t.Fatalf("mean response %v, want ~5ms", m)
	}
}

type senderFunc func([]byte) error

func (f senderFunc) Send(b []byte) error { return f(b) }

func TestMeterLatencyAndLoss(t *testing.T) {
	k, timers := rig()
	m := NewMeter(k)
	out := &collect{meter: m, dropIdx: map[int]bool{3: true, 7: true}}
	g := &CBR{Timers: timers, Out: out, MsgSize: 100, Interval: 10 * time.Millisecond}
	g.Start(20)
	k.RunUntil(time.Second)
	if m.Messages != 18 {
		t.Fatalf("messages %d", m.Messages)
	}
	if m.Lost(g.Generated) != 2 || m.LossRate(g.Generated) != 0.1 {
		t.Fatalf("lost %d rate %v", m.Lost(g.Generated), m.LossRate(g.Generated))
	}
	// Zero transit in this rig (delivery at send time).
	if m.Latency.Max != 0 {
		t.Fatalf("latency max %v in a zero-delay rig", m.Latency.Max)
	}
	if m.Misordered != 0 {
		t.Fatal("misordered in an ordered rig")
	}
}

func TestMeterReassemblesSegmentedMessages(t *testing.T) {
	k, timers := rig()
	m := NewMeter(k)
	out := &collect{meter: m, split: 100} // 100-byte segments
	g := &CBR{Timers: timers, Out: out, MsgSize: 950, Interval: 10 * time.Millisecond}
	g.Start(5)
	k.RunUntil(time.Second)
	if m.Messages != 5 {
		t.Fatalf("reassembled %d messages from segments", m.Messages)
	}
	if m.Bytes != 5*950 {
		t.Fatalf("bytes %d", m.Bytes)
	}
	if m.Incomplete != 0 {
		t.Fatalf("incomplete %d", m.Incomplete)
	}
}

func TestMeterDetectsMissingTail(t *testing.T) {
	k, _ := rig()
	m := NewMeter(k)
	// Header segment of msg 0 arrives, EOM lost, then msg 1 complete.
	m.OnDeliver(session.Delivery{Msg: message.NewFromBytes(Stamp(0, 0, 50)), EOM: false})
	m.OnDeliver(session.Delivery{Msg: message.NewFromBytes(Stamp(1, 0, 50)), EOM: true})
	if m.Messages != 1 || m.Incomplete != 1 {
		t.Fatalf("messages=%d incomplete=%d", m.Messages, m.Incomplete)
	}
}

func TestMeterDetectsMissingHead(t *testing.T) {
	k, _ := rig()
	m := NewMeter(k)
	// Continuation-only segment with EOM but no opening header.
	m.OnDeliver(session.Delivery{Msg: message.NewFromBytes(make([]byte, 40)), EOM: true})
	if m.Messages != 0 || m.Incomplete != 1 {
		t.Fatalf("messages=%d incomplete=%d", m.Messages, m.Incomplete)
	}
}

func TestMeterMisorderCount(t *testing.T) {
	k, _ := rig()
	m := NewMeter(k)
	for _, seq := range []uint64{0, 2, 1, 3} {
		m.OnDeliver(session.Delivery{Msg: message.NewFromBytes(Stamp(seq, 0, 30)), EOM: true})
	}
	if m.Misordered != 1 {
		t.Fatalf("misordered %d", m.Misordered)
	}
	if m.MaxSeq != 3 {
		t.Fatalf("maxseq %d", m.MaxSeq)
	}
}

func TestStampMinimumSize(t *testing.T) {
	b := Stamp(1, time.Second, 0)
	if len(b) != headerLen {
		t.Fatalf("stamp %d bytes", len(b))
	}
}

// TestVBRBudgetLadder exercises the DASH-style content-adaptation hook: the
// generator steps to the best tier fitting each granted budget, falls to
// the lowest tier when nothing fits, and counts shifts in each direction.
func TestVBRBudgetLadder(t *testing.T) {
	v := &VBR{FrameRate: 30, Tiers: []int{4000, 2000, 1000}, MeanSize: 4000}

	v.OnBudget(2e6) // top tier needs 960 kbps; plenty
	if v.Tier != 0 || v.MeanSize != 4000 {
		t.Fatalf("tier %d size %d under 2 Mbps, want top tier", v.Tier, v.MeanSize)
	}
	v.OnBudget(600e3) // 480 kbps middle tier fits, top does not
	if v.Tier != 1 || v.MeanSize != 2000 || v.Downshifts != 1 {
		t.Fatalf("tier %d size %d downshifts %d under 600 kbps, want middle tier", v.Tier, v.MeanSize, v.Downshifts)
	}
	v.OnBudget(100e3) // nothing fits: floor at the lowest tier
	if v.Tier != 2 || v.MeanSize != 1000 || v.Downshifts != 2 {
		t.Fatalf("tier %d size %d under 100 kbps, want bottom tier", v.Tier, v.MeanSize)
	}
	v.OnBudget(5e6) // recovery steps back to quality
	if v.Tier != 0 || v.Upshifts != 1 {
		t.Fatalf("tier %d upshifts %d after recovery, want top tier", v.Tier, v.Upshifts)
	}
}

// TestVBRWithoutTiersIgnoresBudget pins the no-ladder behavior.
func TestVBRWithoutTiersIgnoresBudget(t *testing.T) {
	v := &VBR{FrameRate: 30, MeanSize: 4000}
	v.OnBudget(1)
	if v.MeanSize != 4000 || v.Downshifts != 0 {
		t.Fatalf("budget changed a ladderless VBR: size %d", v.MeanSize)
	}
}

// zeroBody is a Sender that checks what a generator hands it: the stamp it
// expects, and nothing but zeros behind it.
type zeroBody struct {
	t    *testing.T
	seen int
}

func (z *zeroBody) Send(data []byte) error {
	z.seen++
	for i, b := range data[headerLen:] {
		if b != 0 {
			z.t.Errorf("message of %d bytes: body byte %d is %#x, want zero", len(data), i, b)
			break
		}
	}
	return nil
}

// Staging buffers are borrowed per emission from a pool all generators share,
// across goroutines when experiments run in parallel. Whatever buffer an
// emission draws, and whatever size it was last used at, the message is the
// stamp followed by zeros: only the header is ever written.
func TestBorrowedStagingBodiesStayZero(t *testing.T) {
	done := make(chan int)
	for g := 0; g < 4; g++ {
		go func() {
			out := &zeroBody{t: t}
			k, _ := rig()
			for i, size := range []int{9000, 100, 4000, headerLen, 1, 16 << 10, 33, 9000} {
				bulk := &Bulk{Out: out, TotalSize: 3 * size, ChunkSize: size, Generated: uint64(i)}
				bulk.Start(k)
			}
			done <- out.seen
		}()
	}
	for g := 0; g < 4; g++ {
		if seen := <-done; seen != 8*3 {
			t.Errorf("generator sent %d messages, want 24", seen)
		}
	}
}
