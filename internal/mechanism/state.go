package mechanism

import (
	"time"

	"adaptive/internal/seqwin"
	"adaptive/internal/wire"
)

// SentPDU is a retransmission-buffer entry.
type SentPDU struct {
	PDU         *wire.PDU
	SentAt      time.Duration
	Retransmits int
}

// RecvPDU is an out-of-order reassembly entry.
type RecvPDU struct {
	PDU       *wire.PDU
	ArrivedAt time.Duration
	Recovered bool // reconstructed by FEC rather than received
}

// Counters are the whitebox counters the recovery strategies share.
type Counters struct {
	Retransmissions uint64
	FECRecovered    uint64
	GapsAbandoned   uint64
}

// Portable is the scalar part of TransferState: what a session's final
// snapshot keeps and what travels, by value, when the session moves to
// another host (session.Handoff; the control plane's record gives each field
// a tag — DESIGN.md §5.19). It is declared here and nowhere else.
type Portable struct {
	SndUna     uint32 // oldest unacknowledged sequence
	SndNxt     uint32 // next sequence to assign
	RcvNxt     uint32 // next expected in-order sequence
	RcvBufCap  int    // advertised-buffer capacity in PDUs
	PeerAdvert int    // the receive window the peer last advertised, in PDUs

	// Round-trip estimation (Jacobson/Karels, with Karn's rule applied by
	// callers: retransmitted PDUs are never timed).
	SRTT   time.Duration
	RTTVar time.Duration
	RTO    time.Duration

	Counters
}

// TransferState is the session context that must survive mechanism
// replacement: the paper's MSP-inspired requirement that a retransmission
// scheme can switch from go-back-n to selective repeat "within an active
// connection without loss of data" (§2.3) is met by keeping sequence state
// and both buffers here, outside any individual mechanism.
type TransferState struct {
	Portable

	Unacked seqwin.Ring[*SentPDU] // in-flight data
	RcvBuf  seqwin.Ring[*RecvPDU] // buffered out-of-order data
	DupAcks int

	// LastRTT is the most recent raw sample, unsmoothed. Congestion
	// detectors that compare against a minimum baseline read this one: the
	// SRTT EWMA keeps reporting an inflated value for seconds after a queue
	// drains, which latches delay-based detectors into a decrease spiral.
	LastRTT time.Duration

	// Cache is the free lists of the event loop the session runs on (see
	// session.Params.Cache): PDUs and payloads the buffers let go of recycle
	// there. Nil is the shared tier; Release drops it, so a husk holds no
	// loop's lists.
	Cache *wire.Cache

	// CtrlScratch is a reusable header-only control PDU for ack emission.
	// Its contents are valid only for the duration of one EmitControl call
	// (EncodeTo copies the header into locals before emitting), so every
	// user must fully re-initialize it. It lives here, not on the stack at
	// the call site, because EmitControl is an interface call: a stack PDU
	// would escape and allocate per ack.
	CtrlScratch wire.PDU

	// Free lists for retransmission/reassembly entries. Sessions are
	// single-threaded per kernel, so plain slices suffice. Bounded so a
	// burst cannot pin memory forever.
	sentFree     []*SentPDU
	recvFree     []*RecvPDU
	drainScratch []*RecvPDU
}

// freeListCap bounds the per-state entry free lists.
const freeListCap = 512

// entryBlock is the largest free-list growth granule for SentPDU/RecvPDU
// entries.
const entryBlock = 16

// blockFor sizes the block an empty free list grows by: as many entries as are
// already in use, so a list doubles toward the depth its window really works
// at — one allocation per entryBlock entries for a deep window, and a single
// entry for an end that only ever holds one (a recovery-less sender keeps its
// entry for the length of one emit; an in-order receiver, for one delivery).
func blockFor(inUse int) int { return min(max(inUse, 1), entryBlock) }

// NewTransferState returns ready-to-use state.
func NewTransferState(rcvBufCap int, rtoInit time.Duration) *TransferState {
	if rcvBufCap <= 0 {
		rcvBufCap = 256
	}
	if rtoInit <= 0 {
		rtoInit = 200 * time.Millisecond
	}
	return &TransferState{Portable: Portable{RcvBufCap: rcvBufCap, PeerAdvert: rcvBufCap, RTO: rtoInit}}
}

// NewSent returns a retransmission-buffer entry from the state's free list,
// initialized to hold p.
func (s *TransferState) NewSent(p *wire.PDU, at time.Duration) *SentPDU {
	if n := len(s.sentFree); n > 0 {
		e := s.sentFree[n-1]
		s.sentFree = s.sentFree[:n-1]
		*e = SentPDU{PDU: p, SentAt: at}
		return e
	}
	blk := make([]SentPDU, blockFor(s.Unacked.Len()))
	for i := 1; i < len(blk); i++ {
		s.sentFree = append(s.sentFree, &blk[i])
	}
	blk[0] = SentPDU{PDU: p, SentAt: at}
	return &blk[0]
}

// FreeSent recycles an entry removed from Unacked, returning its PDU (payload
// included) to the wire pool. The caller must not touch e or e.PDU afterwards.
func (s *TransferState) FreeSent(e *SentPDU) {
	s.Cache.PutPDU(e.PDU)
	e.PDU = nil
	if len(s.sentFree) < freeListCap {
		s.sentFree = append(s.sentFree, e)
	}
}

// NewRecv returns a reassembly entry from the state's free list.
func (s *TransferState) NewRecv(p *wire.PDU, at time.Duration, recovered bool) *RecvPDU {
	if n := len(s.recvFree); n > 0 {
		e := s.recvFree[n-1]
		s.recvFree = s.recvFree[:n-1]
		*e = RecvPDU{PDU: p, ArrivedAt: at, Recovered: recovered}
		return e
	}
	blk := make([]RecvPDU, blockFor(s.RcvBuf.Len()))
	for i := 1; i < len(blk); i++ {
		s.recvFree = append(s.recvFree, &blk[i])
	}
	blk[0] = RecvPDU{PDU: p, ArrivedAt: at, Recovered: recovered}
	return &blk[0]
}

// FreeRecv recycles a reassembly entry after delivery, returning its PDU to
// the wire pool (the payload must already have been handed off or released).
func (s *TransferState) FreeRecv(e *RecvPDU) {
	s.Cache.PutPDU(e.PDU)
	e.PDU = nil
	if len(s.recvFree) < freeListCap {
		s.recvFree = append(s.recvFree, e)
	}
}

// Release returns every buffered PDU — payload included — to the wire pool and
// drops both buffers, the free lists and the loop's Cache (session teardown).
// The scalars stay: they are the session's final snapshot.
func (s *TransferState) Release() {
	for _, e := range s.Unacked.All() {
		s.Cache.PutPDU(e.PDU)
	}
	for _, e := range s.RcvBuf.All() {
		s.Cache.PutPDU(e.PDU)
	}
	s.Unacked, s.RcvBuf = seqwin.Ring[*SentPDU]{}, seqwin.Ring[*RecvPDU]{}
	s.sentFree, s.recvFree, s.drainScratch = nil, nil, nil
	s.Cache = nil
}

// InFlight returns the number of unacknowledged data PDUs.
func (s *TransferState) InFlight() int { return s.Unacked.Len() }

// Advertise returns the receive-window advertisement in PDUs.
func (s *TransferState) Advertise() uint16 {
	free := s.RcvBufCap - s.RcvBuf.Len()
	if free < 0 {
		free = 0
	}
	if free > 0xffff {
		free = 0xffff
	}
	return uint16(free)
}

// ObserveRTT folds a fresh round-trip sample into SRTT/RTTVar/RTO. It is the
// one estimator: sessions run it, and so does the stack's out-of-band channel.
func (s *Portable) ObserveRTT(sample, rtoMin, rtoMax time.Duration) {
	if s.SRTT == 0 {
		s.SRTT = sample
		s.RTTVar = sample / 2
	} else {
		diff := sample - s.SRTT
		if diff < 0 {
			diff = -diff
		}
		s.RTTVar += (diff - s.RTTVar) / 4
		s.SRTT += (sample - s.SRTT) / 8
	}
	// RFC 6298 shape: the variance term carries a granularity guard so the
	// timeout never converges to exactly SRTT when identical samples decay
	// RTTVar to zero (any jitter would then fire a spurious retransmit).
	varTerm := 4 * s.RTTVar
	if varTerm < time.Millisecond {
		varTerm = time.Millisecond
	}
	rto := s.SRTT + varTerm
	if rto < rtoMin {
		rto = rtoMin
	}
	if rtoMax > 0 && rto > rtoMax {
		rto = rtoMax
	}
	s.RTO = rto
}

// BackoffRTO doubles the retransmission timeout (exponential backoff) up to
// max.
func (s *TransferState) BackoffRTO(max time.Duration) {
	s.RTO *= 2
	if max > 0 && s.RTO > max {
		s.RTO = max
	}
}

// AckThrough removes all entries with seq < ack from the retransmission
// buffer and advances SndUna. It returns the number of PDUs acknowledged and
// the send timestamp of the newest acked, untimed==false entry (for RTT
// sampling); ok is false when no timeable sample exists.
func (s *TransferState) AckThrough(ack uint32) (acked int, sentAt time.Duration, ok bool) {
	if ack <= s.SndUna {
		return 0, 0, false
	}
	for seq := s.SndUna; seq < ack && s.Unacked.Len() > 0; seq++ {
		if e, present := s.Unacked.Take(seq); present {
			acked++
			if e.Retransmits == 0 { // Karn's rule
				if !ok || e.SentAt > sentAt {
					sentAt, ok = e.SentAt, true
				}
			}
			s.FreeSent(e)
		}
	}
	s.SndUna = ack
	s.DupAcks = 0
	return acked, sentAt, ok
}

// DrainInOrder removes and returns the contiguous run of buffered PDUs
// starting at RcvNxt, advancing RcvNxt past them. Recovery strategies call
// it after inserting arrivals into RcvBuf. The returned slice aliases a
// per-state scratch buffer: it is valid only until the next DrainInOrder
// call, which is fine for its callers (they consume the run synchronously).
func (s *TransferState) DrainInOrder() []*RecvPDU {
	out := s.drainScratch[:0]
	for {
		e, present := s.RcvBuf.Take(s.RcvNxt)
		if !present {
			break
		}
		s.RcvNxt++
		out = append(out, e)
	}
	s.drainScratch = out
	return out
}
