// Package trace is the deterministic flight recorder of the simulation
// stack: a near-zero-overhead, fixed-size-record event log that makes every
// run explainable and every determinism failure bisectable.
//
// Records are appended to a per-kernel ring buffer by instrumentation hooks
// in the sim kernel (timer fire/cancel), netsim (link tx/drop/dup/corrupt,
// batched drains, fault events), the session (send/receive pipeline stages,
// segue begin/commit), and the reliability mechanisms (retransmit, ack, FEC
// repair). Every field of a Record is derived from deterministic simulation
// state — virtual timestamps, kernel event sequence numbers, connection and
// link identifiers — so two same-seed runs produce byte-identical traces,
// and Diff can report the exact first event where two runs part ways.
//
// When tracing is disabled (nil *Recorder) every hook reduces to a single
// pointer-nil branch with zero allocations; the data path is unchanged.
package trace

import (
	"fmt"
	"time"
)

// Kind identifies what a Record describes. The numeric values are part of
// the binary trace-file format; append new kinds, never renumber.
type Kind uint16

const (
	KNone Kind = iota

	// Kernel events.
	KTimerFire // A=event seq, B=events executed so far
	KTimerStop // A=event seq of the canceled timer

	// Link events (ID = link id).
	KLinkTx      // A=packet bytes, B=link TxPackets so far
	KLinkDrop    // A=drop reason (Drop*), B=packet bytes
	KLinkDup     // A=packet bytes
	KLinkCorrupt // A=packet bytes, B=flipped bit index
	KLinkDrain   // A=packets delivered by this batched drain
	KFault       // A=fault code (Fault*), B=code-specific detail

	// Session pipeline events (ID = connection id).
	KSendSubmit  // A=message bytes submitted by the application
	KPDUSend     // A=seq, B=wire type, C=encoded bytes
	KPDURecv     // A=seq, B=wire type, C=payload bytes
	KDeliver     // A=seq, B=message bytes, C=1 when end-of-message
	KSegueBegin  // A=slot code (Slot*)
	KSegueCommit // A=slot code, B=HashName(from), C=HashName(to)

	// Reliability events (ID = connection id).
	KRetransmit // A=seq, B=retransmit count for that seq
	KAckSend    // A=cumulative ack value
	KFECRepair  // A=recovered seq

	kindCount // sentinel
)

var kindNames = [...]string{
	KNone:        "none",
	KTimerFire:   "timer.fire",
	KTimerStop:   "timer.stop",
	KLinkTx:      "link.tx",
	KLinkDrop:    "link.drop",
	KLinkDup:     "link.dup",
	KLinkCorrupt: "link.corrupt",
	KLinkDrain:   "link.drain",
	KFault:       "fault",
	KSendSubmit:  "send.submit",
	KPDUSend:     "pdu.send",
	KPDURecv:     "pdu.recv",
	KDeliver:     "deliver",
	KSegueBegin:  "segue.begin",
	KSegueCommit: "segue.commit",
	KRetransmit:  "retransmit",
	KAckSend:     "ack.send",
	KFECRepair:   "fec.repair",
}

func (k Kind) String() string {
	if int(k) < len(kindNames) && kindNames[k] != "" {
		return kindNames[k]
	}
	return fmt.Sprintf("kind(%d)", uint16(k))
}

// KindByName resolves a kind name (as printed by String) back to its code;
// ok is false for unknown names.
func KindByName(name string) (Kind, bool) {
	for k, n := range kindNames {
		if n == name {
			return Kind(k), true
		}
	}
	return KNone, false
}

// Drop reason codes (A argument of KLinkDrop).
const (
	DropDown   = 1 // link administratively down
	DropBurst  = 2 // Gilbert–Elliott impairment loss
	DropRandom = 3 // LinkConfig.DropRate loss
	DropMTU    = 4 // packet exceeded the link MTU
	DropQueue  = 5 // tail-drop, queue full (congestion)
)

// Fault codes (A argument of KFault).
const (
	FaultLinkDown    = 1
	FaultLinkUp      = 2
	FaultImpair      = 3
	FaultClearImpair = 4
	FaultPartition   = 5 // B = severed host pairs
	FaultHeal        = 6
)

// Segue slot codes (A argument of KSegueBegin/KSegueCommit).
const (
	SlotRecovery = 1
	SlotWindow   = 2
	SlotRate     = 3
	SlotOrder    = 4
)

// SlotName renders a segue slot code.
func SlotName(code uint64) string {
	switch code {
	case SlotRecovery:
		return "recovery"
	case SlotWindow:
		return "window"
	case SlotRate:
		return "rate"
	case SlotOrder:
		return "order"
	}
	return fmt.Sprintf("slot(%d)", code)
}

// HashName maps a mechanism name to a deterministic 64-bit tag (FNV-1a), so
// string-valued trace arguments fit a fixed-size record.
func HashName(s string) uint64 {
	var h uint64 = 14695981039346656037
	for i := 0; i < len(s); i++ {
		h ^= uint64(s[i])
		h *= 1099511628211
	}
	return h
}

// Record is one fixed-size trace entry. At is the virtual timestamp; the
// meaning of ID and A/B/C depends on Kind (see the Kind constants).
type Record struct {
	At   time.Duration
	A    uint64
	B    uint64
	C    uint64
	ID   uint32
	Kind Kind
}

func (r Record) String() string {
	return fmt.Sprintf("%12v %-12s id=%08x a=%d b=%d c=%d",
		r.At, r.Kind, r.ID, r.A, r.B, r.C)
}

// Recorder is a power-of-two ring buffer of Records for one kernel (one
// shard). It is single-writer, like the kernel it instruments: hooks run
// inside kernel callbacks, so no locking is needed or performed. A nil
// *Recorder is a valid, permanently-disabled recorder: Emit and EmitKeyed on
// nil are single-branch no-ops, which is what keeps disabled tracing off the
// allocation and time profile of the data path.
type Recorder struct {
	buf        []Record
	mask       uint64
	n          uint64 // total records emitted (including overwritten ones)
	sampleMask uint64 // EmitKeyed records only keys with key&sampleMask == 0
	shard      int

	// Streaming sink (nil when not streaming). low is the first emit index
	// not yet handed to the stream; once n-low reaches flushEvery the writer
	// flushes pending records into a pooled Chunk (see stream.go). All three
	// are writer-goroutine state, like buf and n.
	stream     *Stream
	low        uint64
	flushEvery uint64
}

// DefaultBuffer is the default ring capacity in records.
const DefaultBuffer = 1 << 16

// NewRecorder returns a recorder whose ring holds at least capacity records
// (rounded up to a power of two; capacity <= 0 selects DefaultBuffer).
func NewRecorder(capacity int) *Recorder {
	if capacity <= 0 {
		capacity = DefaultBuffer
	}
	size := 1
	for size < capacity {
		size <<= 1
	}
	return &Recorder{buf: make([]Record, size), mask: uint64(size - 1)}
}

// SetShard tags the recorder with its shard index (trace files and Chrome
// exports group records by shard).
func (r *Recorder) SetShard(shard int) { r.shard = shard }

// SetSample sets keyed sampling to record one in every n keyed events
// (n must be a power of two; n <= 1 records everything). Structural events
// emitted with Emit are never sampled out.
func (r *Recorder) SetSample(n uint64) error {
	if n&(n-1) != 0 {
		return fmt.Errorf("trace: sample rate 1/%d is not a power of two", n)
	}
	if n <= 1 {
		r.sampleMask = 0
		return nil
	}
	r.sampleMask = n - 1
	return nil
}

// Emit appends one record. Safe (and free) on a nil Recorder.
func (r *Recorder) Emit(at time.Duration, kind Kind, id uint32, a, b, c uint64) {
	if r == nil {
		return
	}
	r.buf[r.n&r.mask] = Record{At: at, A: a, B: b, C: c, ID: id, Kind: kind}
	r.n++
	if r.stream != nil && r.n-r.low >= r.flushEvery {
		r.flushPending()
	}
}

// EmitKeyed appends one record subject to keyed sampling: the record is
// kept only when key & sampleMask == 0, so a 1/n sample retains the same
// deterministic subset (same keys) in every run. Safe on a nil Recorder.
func (r *Recorder) EmitKeyed(key uint64, at time.Duration, kind Kind, id uint32, a, b, c uint64) {
	if r == nil || key&r.sampleMask != 0 {
		return
	}
	r.buf[r.n&r.mask] = Record{At: at, A: a, B: b, C: c, ID: id, Kind: kind}
	r.n++
	if r.stream != nil && r.n-r.low >= r.flushEvery {
		r.flushPending()
	}
}

// Total returns how many records were emitted over the recorder's lifetime,
// including any overwritten by ring wrap-around.
func (r *Recorder) Total() uint64 {
	if r == nil {
		return 0
	}
	return r.n
}

// Len returns how many records the ring currently retains.
func (r *Recorder) Len() int {
	if r == nil {
		return 0
	}
	if r.n < uint64(len(r.buf)) {
		return int(r.n)
	}
	return len(r.buf)
}

// Records returns the retained records, oldest first.
func (r *Recorder) Records() []Record {
	if r == nil || r.n == 0 {
		return nil
	}
	out := make([]Record, 0, r.Len())
	start := uint64(0)
	if r.n > uint64(len(r.buf)) {
		start = r.n - uint64(len(r.buf))
	}
	for i := start; i < r.n; i++ {
		out = append(out, r.buf[i&r.mask])
	}
	return out
}

// Reset clears the ring without resizing it. Records not yet flushed to an
// installed stream are discarded.
func (r *Recorder) Reset() {
	if r == nil {
		return
	}
	r.n = 0
	r.low = 0
}

// Snapshot captures the recorder as one shard of a Set.
func (r *Recorder) Snapshot() ShardTrace {
	if r == nil {
		return ShardTrace{}
	}
	return ShardTrace{Shard: r.shard, Total: r.n, Records: r.Records()}
}

// ShardTrace is one kernel's worth of trace data.
type ShardTrace struct {
	Shard   int
	Total   uint64 // lifetime emitted count (>= len(Records) after wrap)
	Records []Record
}

// Set is a complete trace: one ShardTrace per kernel, in shard order.
type Set struct {
	Shards []ShardTrace
}

// Collect builds a Set from recorders in the given order (pass one recorder
// for single-kernel runs, one per shard for sharded runs).
func Collect(recs ...*Recorder) *Set {
	s := &Set{}
	for _, r := range recs {
		s.Shards = append(s.Shards, r.Snapshot())
	}
	return s
}

// Len returns the total retained records across all shards.
func (s *Set) Len() int {
	n := 0
	for _, sh := range s.Shards {
		n += len(sh.Records)
	}
	return n
}
