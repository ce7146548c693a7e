package mechanism

import (
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

// TLV tags for Spec encoding (negotiation payloads and implicit-connection
// piggyback blobs). Tags are stable wire artifacts: never renumber.
const (
	tagConnMgmt   uint16 = 1
	tagRecovery   uint16 = 2
	tagWindowKind uint16 = 3
	tagOrder      uint16 = 4
	tagChecksum   uint16 = 5
	tagWindowSize uint16 = 6
	tagFECGroup   uint16 = 7
	tagRateBps    uint16 = 8
	tagMSS        uint16 = 9
	tagRcvBuf     uint16 = 10
	tagRTOInit    uint16 = 11
	tagRTOMin     uint16 = 12
	tagRTOMax     uint16 = 13
	tagGapDead    uint16 = 14
	tagBoolFlags  uint16 = 15
	tagPriority   uint16 = 16
	tagAckDelay   uint16 = 17
	tagEstTimeout uint16 = 18
	tagKeepalive  uint16 = 19
	tagDeadIntvl  uint16 = 20
)

const (
	specFlagGraceful     = 1 << 0
	specFlagLossTolerant = 1 << 1
	specFlagMulticast    = 1 << 2
)

// EncodeSpec serializes a Spec as TLV.
func EncodeSpec(s *Spec) []byte {
	var w wire.TLVWriter
	w.Grow(224) // fixed field set; one slab covers the whole encoding
	w.PutU8(tagConnMgmt, uint8(s.ConnMgmt))
	w.PutU8(tagRecovery, uint8(s.Recovery))
	w.PutU8(tagWindowKind, uint8(s.Window))
	w.PutU8(tagOrder, uint8(s.Order))
	w.PutU8(tagChecksum, uint8(s.Checksum))
	w.PutU32(tagWindowSize, uint32(s.WindowSize))
	w.PutU32(tagFECGroup, uint32(s.FECGroup))
	w.PutU64(tagRateBps, uint64(s.RateBps))
	w.PutU32(tagMSS, uint32(s.MSS))
	w.PutU32(tagRcvBuf, uint32(s.RcvBufPDUs))
	w.PutU64(tagRTOInit, uint64(s.RTOInit))
	w.PutU64(tagRTOMin, uint64(s.RTOMin))
	w.PutU64(tagRTOMax, uint64(s.RTOMax))
	w.PutU64(tagGapDead, uint64(s.GapDeadline))
	var flags uint8
	if s.Graceful {
		flags |= specFlagGraceful
	}
	if s.LossTolerant {
		flags |= specFlagLossTolerant
	}
	if s.Multicast {
		flags |= specFlagMulticast
	}
	w.PutU8(tagBoolFlags, flags)
	w.PutU32(tagPriority, uint32(s.Priority))
	w.PutU64(tagAckDelay, uint64(s.AckDelay))
	w.PutU64(tagEstTimeout, uint64(s.EstablishTimeout))
	w.PutU64(tagKeepalive, uint64(s.KeepaliveInterval))
	w.PutU64(tagDeadIntvl, uint64(s.DeadInterval))
	return w.Bytes()
}

// DecodeSpec parses a TLV-encoded Spec, tolerating unknown tags.
func DecodeSpec(b []byte) (*Spec, error) {
	s := &Spec{}
	r := wire.NewTLVReader(b)
	for {
		tag, val, ok, err := r.Next()
		if err != nil {
			return nil, err
		}
		if !ok {
			break
		}
		switch tag {
		case tagConnMgmt:
			s.ConnMgmt = ConnKind(wire.U8(val))
		case tagRecovery:
			s.Recovery = RecoveryKind(wire.U8(val))
		case tagWindowKind:
			s.Window = WindowKind(wire.U8(val))
		case tagOrder:
			s.Order = OrderKind(wire.U8(val))
		case tagChecksum:
			s.Checksum = wire.ChecksumKind(wire.U8(val))
		case tagWindowSize:
			s.WindowSize = int(wire.U32(val))
		case tagFECGroup:
			s.FECGroup = int(wire.U32(val))
		case tagRateBps:
			s.RateBps = float64(wire.U64(val))
		case tagMSS:
			s.MSS = int(wire.U32(val))
		case tagRcvBuf:
			s.RcvBufPDUs = int(wire.U32(val))
		case tagRTOInit:
			s.RTOInit = time.Duration(wire.U64(val))
		case tagRTOMin:
			s.RTOMin = time.Duration(wire.U64(val))
		case tagRTOMax:
			s.RTOMax = time.Duration(wire.U64(val))
		case tagGapDead:
			s.GapDeadline = time.Duration(wire.U64(val))
		case tagBoolFlags:
			f := wire.U8(val)
			s.Graceful = f&specFlagGraceful != 0
			s.LossTolerant = f&specFlagLossTolerant != 0
			s.Multicast = f&specFlagMulticast != 0
		case tagPriority:
			s.Priority = int(wire.U32(val))
		case tagAckDelay:
			s.AckDelay = time.Duration(wire.U64(val))
		case tagEstTimeout:
			s.EstablishTimeout = time.Duration(wire.U64(val))
		case tagKeepalive:
			s.KeepaliveInterval = time.Duration(wire.U64(val))
		case tagDeadIntvl:
			s.DeadInterval = time.Duration(wire.U64(val))
		}
	}
	s.Normalize()
	return s, nil
}
