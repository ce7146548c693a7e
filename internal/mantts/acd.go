// Package mantts implements the MANTTS subsystem ("Map Applications and
// Networks To Transport Systems", ADAPTIVE §4.1): the three-stage
// transformation from application QoS requirements to an executable
// transport session —
//
//	Stage I:   ACD  -> Transport Service Class (TSC)
//	Stage II:  TSC  -> Session Configuration Specification (SCS)
//	Stage III: SCS  -> synthesized session (delegated to TKO)
//
// — plus QoS negotiation with remote MANTTS entities, the network state
// descriptor fed by the MANTTS Network Monitor Interface, and the
// Transport Service Adjustment (TSA) policy engine that drives run-time
// reconfiguration.
package mantts

import (
	"fmt"
	"time"

	"adaptive/internal/netapi"
	"adaptive/internal/wire"
)

// Level is a qualitative requirement level, matching the vocabulary of the
// paper's Table 1 (low / moderate / high / very-high, plus variable and
// not-defined).
type Level int

const (
	None Level = iota
	VeryLow
	Low
	Moderate
	High
	VeryHigh
	Variable
	NotDefined
)

func (l Level) String() string {
	switch l {
	case None:
		return "none"
	case VeryLow:
		return "very-low"
	case Low:
		return "low"
	case Moderate:
		return "mod"
	case High:
		return "high"
	case VeryHigh:
		return "very-high"
	case Variable:
		return "var"
	case NotDefined:
		return "N/D"
	}
	return fmt.Sprintf("level(%d)", int(l))
}

// QuantQoS holds the quantitative quality-of-service parameters of the
// ADAPTIVE Communication Descriptor (Table 2): "peak and average throughput,
// minimum and maximum latency and jitter, error-rate probabilities,
// duration".
type QuantQoS struct {
	PeakThroughputBps float64
	AvgThroughputBps  float64
	MaxLatency        time.Duration // 0 = unconstrained
	MaxJitter         time.Duration // 0 = unconstrained
	LossTolerance     float64       // acceptable fraction of data lost (0 = none)
	Duration          time.Duration // expected session duration (0 = unknown)
}

// TransmissionUnit selects byte-, packet-, or block-based transmission and
// acknowledgment semantics (a qualitative ACD parameter).
type TransmissionUnit int

const (
	UnitPacket TransmissionUnit = iota
	UnitByte
	UnitBlock
)

// ConnPreference lets the application force a connection-management style;
// the default lets MANTTS choose from duration and latency requirements.
type ConnPreference int

const (
	ConnAuto ConnPreference = iota
	ConnPreferImplicit
	ConnPreferExplicit
)

// QualQoS holds the qualitative ACD parameters: "sequenced/non-sequenced
// delivery, duplicate sensitivity, explicit/implicit connection management,
// (byte/packet/block)-based transmission and acknowledgment".
type QualQoS struct {
	Ordered      bool
	DupSensitive bool
	ConnMgmt     ConnPreference
	Unit         TransmissionUnit
	Priority     int
}

// TMC is the Transport Measurement Component (Table 2): the metrics the
// application wants UNITES to collect for this session, and how often the
// policy engine samples them.
type TMC struct {
	Metrics    []string
	SampleRate time.Duration
}

// ACD is the ADAPTIVE Communication Descriptor (Table 2) an application
// passes through the MANTTS-API when initiating a connection.
type ACD struct {
	// Participants are the remote end systems in the association; more
	// than one requests multicast service.
	Participants []netapi.Addr
	// RemotePort is the peer transport port (service).
	RemotePort uint16
	Quant      QuantQoS
	Qual       QualQoS
	// TSA holds <condition, action> pairs evaluated when conditions
	// change in local or remote hosts or the network.
	TSA []Rule
	TMC TMC
	// Class, if non-nil, explicitly selects a TSC ("applications may
	// explicitly select a TSC to help simplify the subsequent
	// configuration process", §4.1.1 Stage I).
	Class *TSC
}

// Multicast reports whether the descriptor requests multicast service.
func (a *ACD) Multicast() bool { return len(a.Participants) > 1 }

// Validate rejects descriptors that cannot be configured.
func (a *ACD) Validate() error {
	if len(a.Participants) == 0 {
		return fmt.Errorf("mantts: ACD needs at least one participant")
	}
	if a.Quant.LossTolerance < 0 || a.Quant.LossTolerance > 1 {
		return fmt.Errorf("mantts: loss tolerance %v outside [0,1]", a.Quant.LossTolerance)
	}
	for _, r := range a.TSA {
		if err := r.Validate(); err != nil {
			return err
		}
	}
	return nil
}

// fields is the ACD's TLV table. The codec serves experiment T2 and tests:
// negotiation itself carries the derived Spec, not the descriptor.
func (a *ACD) fields() [17]wire.Field {
	return [...]wire.Field{
		{Tag: 1, Form: wire.Packed, At: &a.Participants, Elem: addrFields},
		{Tag: 2, Form: wire.U16, At: &a.RemotePort},
		{Tag: 3, Form: wire.Whole, At: &a.Quant.PeakThroughputBps},
		{Tag: 4, Form: wire.Whole, At: &a.Quant.AvgThroughputBps},
		{Tag: 5, Form: wire.U64, At: &a.Quant.MaxLatency},
		{Tag: 6, Form: wire.U64, At: &a.Quant.MaxJitter},
		{Tag: 7, Form: wire.Nano, At: &a.Quant.LossTolerance},
		{Tag: 8, Form: wire.U64, At: &a.Quant.Duration},
		{Tag: 9, Form: wire.Bit, At: &a.Qual.Ordered},
		{Tag: 9, Form: wire.Bit, At: &a.Qual.DupSensitive},
		{Tag: 10, Form: wire.U8, At: &a.Qual.Unit},
		{Tag: 11, Form: wire.U32, At: &a.Qual.Priority},
		{Tag: 12, Form: wire.U8, At: &a.Qual.ConnMgmt},
		{Tag: 13, Form: wire.Doc, At: &a.TSA, Elem: ruleFields},
		{Tag: 14, Form: wire.Bytes, At: &a.TMC.Metrics},
		{Tag: 15, Form: wire.U64, At: &a.TMC.SampleRate, Omit: a.TMC.SampleRate == 0},
		{Tag: 16, Form: wire.U8, At: &a.Class},
	}
}

// addrFields lays out a participant: host u32 | port u16.
func addrFields(at any) []wire.Field {
	a := at.(*netapi.Addr)
	return []wire.Field{{Form: wire.U32, At: &a.Host}, {Form: wire.U16, At: &a.Port}}
}

// ruleFields lays out a TSA rule, a nested document.
func ruleFields(at any) []wire.Field {
	f := at.(*Rule).fields()
	return f[:]
}

// EncodeACD serializes an ACD as TLV.
func EncodeACD(a *ACD) []byte {
	f := a.fields()
	return wire.Append(nil, f[:])
}

// DecodeACD parses a TLV-encoded ACD.
func DecodeACD(b []byte) (*ACD, error) {
	a := &ACD{}
	f := a.fields()
	if err := wire.Decode(b, f[:]); err != nil {
		return nil, err
	}
	return a, nil
}
