package mechanism

import (
	"errors"
	"fmt"
	"time"

	"adaptive/internal/wire"
)

// Each mechanism kind has one table of names, indexed by kind: String reads
// it and the Parse function beside it searches it, so a name is spelled once.
// (mantts.MetricID names its metrics the same way.)

// KindName returns names[k], or "what(k)" for a kind past the table.
func KindName(what string, names []string, k uint8) string {
	if int(k) < len(names) {
		return names[k]
	}
	return fmt.Sprintf("%s(%d)", what, k)
}

// ParseKind returns the index of s in names.
func ParseKind(what string, names []string, s string) (uint8, error) {
	for k, name := range names {
		if name == s {
			return uint8(k), nil
		}
	}
	return 0, fmt.Errorf("unknown %s %q", what, s)
}

// ConnKind names a connection-management mechanism.
type ConnKind uint8

const (
	ConnImplicit     ConnKind = iota // config piggybacked on first data PDU
	ConnExplicit2Way                 // request/accept handshake
	ConnExplicit3Way                 // request/accept/confirm handshake
)

var connNames = [...]string{"implicit", "explicit-2way", "explicit-3way"}

func (c ConnKind) String() string { return KindName("conn", connNames[:], uint8(c)) }

// ParseConnKind is the inverse of String.
func ParseConnKind(s string) (ConnKind, error) {
	k, err := ParseKind("conn", connNames[:], s)
	return ConnKind(k), err
}

// RecoveryKind names an error-recovery mechanism.
type RecoveryKind uint8

const (
	RecoveryNone            RecoveryKind = iota // fire-and-forget
	RecoveryGoBackN                             // cumulative ack, retransmit from SndUna
	RecoverySelectiveRepeat                     // receiver buffers, NAK-driven resend
	RecoveryFEC                                 // XOR parity groups, loss-tolerant
	RecoveryFECHybrid                           // FEC first, NAK fallback (reliable)
)

var recoveryNames = [...]string{"none", "go-back-n", "selective-repeat", "fec", "fec-hybrid"}

func (r RecoveryKind) String() string { return KindName("recovery", recoveryNames[:], uint8(r)) }

// ParseRecoveryKind is the inverse of String.
func ParseRecoveryKind(s string) (RecoveryKind, error) {
	k, err := ParseKind("recovery", recoveryNames[:], s)
	return RecoveryKind(k), err
}

// WindowKind names a transmission-window mechanism.
type WindowKind uint8

const (
	WindowFixed       WindowKind = iota // static sliding window
	WindowStopAndWait                   // window of one
	WindowAdaptive                      // slow-start / AIMD congestion window
)

var windowNames = [...]string{"fixed-window", "stop-and-wait", "adaptive-window"}

func (w WindowKind) String() string { return KindName("window", windowNames[:], uint8(w)) }

// OrderKind names a sequencing mechanism.
type OrderKind uint8

const (
	OrderNone      OrderKind = iota // deliver as released (dup-filtered)
	OrderSequenced                  // strict in-order delivery
)

var orderNames = [...]string{"unordered", "sequenced"}

func (o OrderKind) String() string { return KindName("order", orderNames[:], uint8(o)) }

// ParseOrderKind is the inverse of String.
func ParseOrderKind(s string) (OrderKind, error) {
	k, err := ParseKind("order", orderNames[:], s)
	return OrderKind(k), err
}

// Spec is the Session Configuration Specification (SCS) — the "blueprint"
// Stage II of the MANTTS transformation produces (Figure 2) and the TKO
// synthesizer consumes in Stage III. It names one concrete mechanism per
// abstract slot plus the parameters the peers negotiate (§4.1.1 lists the
// negotiated categories: parameters, mechanisms, representations).
type Spec struct {
	ConnMgmt ConnKind
	Recovery RecoveryKind
	Window   WindowKind
	Order    OrderKind
	Checksum wire.ChecksumKind

	WindowSize int     // PDUs, for fixed windows; initial cwnd for adaptive
	FECGroup   int     // data PDUs per parity block
	RateBps    float64 // pacing rate; 0 = unpaced
	MSS        int     // max segment size (payload bytes per data PDU)
	RcvBufPDUs int     // receiver buffer capacity

	RTOInit time.Duration
	RTOMin  time.Duration
	RTOMax  time.Duration

	// AckDelay enables delayed acknowledgments: the receiver coalesces
	// cumulative acks for up to this long (or every second in-order data
	// PDU, whichever first). Zero acks immediately. One of the negotiated
	// "timer settings for delayed acknowledgments" of §4.1.1.
	AckDelay time.Duration

	// GapDeadline bounds how long a loss-tolerant receiver waits for a
	// missing PDU before abandoning the gap (isochronous delivery).
	GapDeadline time.Duration

	// EstablishTimeout bounds the active-open handshake: retries back off
	// exponentially from RTOInit, and the attempt fails once this much time
	// has passed. Zero keeps only the retry-count bound.
	EstablishTimeout time.Duration

	// KeepaliveInterval enables dead-peer detection: an idle established
	// session probes the peer this often, and declares it dead (NotePeerDead,
	// abortive close) after DeadInterval without hearing anything. Zero
	// disables keepalives entirely.
	KeepaliveInterval time.Duration
	DeadInterval      time.Duration

	Graceful     bool // drain send queue before close
	LossTolerant bool // application accepts gaps
	Multicast    bool // session addresses a group
	Priority     int  // scheduling priority (0 = normal)
}

// DefaultSpec returns a reasonable reliable unicast configuration.
func DefaultSpec() Spec {
	return Spec{
		ConnMgmt:   ConnExplicit2Way,
		Recovery:   RecoverySelectiveRepeat,
		Window:     WindowFixed,
		Order:      OrderSequenced,
		Checksum:   wire.CkCRC32,
		WindowSize: 32,
		FECGroup:   8,
		MSS:        1400,
		RcvBufPDUs: 256,
		RTOInit:    200 * time.Millisecond,
		RTOMin:     10 * time.Millisecond,
		RTOMax:     10 * time.Second,
		Graceful:   true,
	}
}

// MaxMSS bounds the segment size. FEC's per-PDU length word keeps its top bit
// for end-of-message, so no mechanism can carry more; a data or parity PDU of
// that size still fits the 16-bit PayloadLen and one provider datagram.
// Normalize clamps to it, so a peer's proposal cannot size the listener's
// allocations.
const MaxMSS = 1<<15 - 1

// Normalize fills zero-valued parameters with defaults so a Spec built field
// by field (or decoded from an older peer) is always runnable.
func (s *Spec) Normalize() {
	d := DefaultSpec()
	if s.WindowSize <= 0 {
		s.WindowSize = d.WindowSize
	}
	if s.FECGroup <= 0 {
		s.FECGroup = d.FECGroup
	}
	if s.FECGroup > 64 {
		s.FECGroup = 64 // receiver group bitmaps are 64-wide
	}
	if s.MSS <= 0 {
		s.MSS = d.MSS
	}
	if s.MSS > MaxMSS {
		s.MSS = MaxMSS
	}
	if s.RcvBufPDUs <= 0 {
		s.RcvBufPDUs = d.RcvBufPDUs
	}
	if s.RTOInit <= 0 {
		s.RTOInit = d.RTOInit
	}
	if s.RTOMin <= 0 {
		s.RTOMin = d.RTOMin
	}
	if s.RTOMax <= 0 {
		s.RTOMax = d.RTOMax
	}
	if s.GapDeadline <= 0 {
		s.GapDeadline = 50 * time.Millisecond
	}
	// A keepalive without a dead interval defaults to the conventional three
	// missed probes; a dead interval shorter than one probe period could
	// never observe a reply in time.
	if s.KeepaliveInterval > 0 {
		if s.DeadInterval <= 0 {
			s.DeadInterval = 3 * s.KeepaliveInterval
		}
		if s.DeadInterval < s.KeepaliveInterval {
			s.DeadInterval = s.KeepaliveInterval
		}
	}
	// Delayed acks must stay well under the sender's RTO floor or every
	// window stalls into a spurious retransmission; and a window of one
	// (stop-and-wait) would serialize on the delay.
	if s.AckDelay > 0 {
		if s.WindowSize <= 2 {
			s.AckDelay = 0
		} else if s.AckDelay > s.RTOMin/2 {
			s.AckDelay = s.RTOMin / 2
		}
	}
}

// String renders the Spec compactly for logs and EXPERIMENTS.md rows.
func (s Spec) String() string {
	return fmt.Sprintf("{conn=%v recovery=%v window=%v(%d) order=%v ck=%v mss=%d rate=%.0f fec=%d}",
		s.ConnMgmt, s.Recovery, s.Window, s.WindowSize, s.Order, s.Checksum, s.MSS, s.RateBps, s.FECGroup)
}

// fields is the SCS's TLV table: the negotiation payload of CONNREQ and
// CONNACK, and the implicit-config blob piggybacked on a first data PDU.
func (s *Spec) fields() [22]wire.Field {
	return [...]wire.Field{
		{Tag: 1, Form: wire.U8, At: &s.ConnMgmt},
		{Tag: 2, Form: wire.U8, At: &s.Recovery},
		{Tag: 3, Form: wire.U8, At: &s.Window},
		{Tag: 4, Form: wire.U8, At: &s.Order},
		{Tag: 5, Form: wire.U8, At: &s.Checksum},
		{Tag: 6, Form: wire.U32, At: &s.WindowSize},
		{Tag: 7, Form: wire.U32, At: &s.FECGroup},
		{Tag: 8, Form: wire.Whole, At: &s.RateBps},
		{Tag: 9, Form: wire.U32, At: &s.MSS},
		{Tag: 10, Form: wire.U32, At: &s.RcvBufPDUs},
		{Tag: 11, Form: wire.U64, At: &s.RTOInit},
		{Tag: 12, Form: wire.U64, At: &s.RTOMin},
		{Tag: 13, Form: wire.U64, At: &s.RTOMax},
		{Tag: 14, Form: wire.U64, At: &s.GapDeadline},
		{Tag: 15, Form: wire.Bit, At: &s.Graceful},
		{Tag: 15, Form: wire.Bit, At: &s.LossTolerant},
		{Tag: 15, Form: wire.Bit, At: &s.Multicast},
		{Tag: 16, Form: wire.U32, At: &s.Priority},
		{Tag: 17, Form: wire.U64, At: &s.AckDelay},
		{Tag: 18, Form: wire.U64, At: &s.EstablishTimeout},
		{Tag: 19, Form: wire.U64, At: &s.KeepaliveInterval},
		{Tag: 20, Form: wire.U64, At: &s.DeadInterval},
	}
}

// EncodeSpec serializes a Spec as TLV.
func EncodeSpec(s *Spec) []byte {
	f := s.fields()
	return wire.Append(nil, f[:])
}

// errNoSpec refuses an empty SCS: read as all defaults it would silently
// switch a live session to no recovery, no ordering and no checksum.
var errNoSpec = errors.New("mechanism: empty spec")

// DecodeSpec parses a TLV-encoded Spec, tolerating unknown tags, and
// normalizes it.
func DecodeSpec(b []byte) (*Spec, error) {
	if len(b) == 0 {
		return nil, errNoSpec
	}
	s := &Spec{}
	f := s.fields()
	if err := wire.Decode(b, f[:]); err != nil {
		return nil, err
	}
	s.Normalize()
	return s, nil
}
