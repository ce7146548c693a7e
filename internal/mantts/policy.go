package mantts

import (
	"fmt"
	"time"

	"adaptive/internal/mechanism"
	"adaptive/internal/wire"
)

// MetricID names a condition input for TSA rules. Values are sampled by the
// MANTTS entity from session whitebox metrics and the network state
// descriptor.
type MetricID uint8

const (
	MetricRTT            MetricID = iota // seconds
	MetricLossRate                       // fraction [0,1]
	MetricCongestion                     // estimate [0,1]
	MetricRetransmitRate                 // retransmissions / data PDUs sent (per window)
	MetricThroughputBps
	MetricRcvBufFill     // receiver buffer occupancy fraction
	MetricJitter         // seconds (RTT variance proxy)
	MetricArbiterSqueeze // 1 - granted/demand from the host bandwidth arbiter [0,1]
)

var metricNames = [...]string{"rtt", "loss-rate", "congestion", "retransmit-rate",
	"throughput", "rcvbuf-fill", "jitter", "arbiter-squeeze"}

func (m MetricID) String() string { return mechanism.KindName("metric", metricNames[:], uint8(m)) }

// ParseMetricID is the inverse of String.
func ParseMetricID(s string) (MetricID, error) {
	m, err := mechanism.ParseKind("metric", metricNames[:], s)
	return MetricID(m), err
}

// Op compares a sampled metric to a rule threshold.
type Op uint8

const (
	OpGT Op = iota
	OpLT
)

func (o Op) String() string {
	if o == OpLT {
		return "<"
	}
	return ">"
}

// Cond is the condition half of a TSA <condition, action> pair.
type Cond struct {
	Metric    MetricID
	Op        Op
	Threshold float64
}

// Holds reports whether the condition is true for the sampled values.
func (c Cond) Holds(values map[MetricID]float64) bool {
	v, ok := values[c.Metric]
	if !ok {
		return false
	}
	if c.Op == OpLT {
		return v < c.Threshold
	}
	return v > c.Threshold
}

func (c Cond) String() string {
	return fmt.Sprintf("%v %v %g", c.Metric, c.Op, c.Threshold)
}

// ActionKind enumerates TSA actions. SetRecovery and SetWindow* adjust the
// SCS ("Adjust the SCS", §4.1.2); NotifyApp is the application-specific
// call-back path.
type ActionKind uint8

const (
	ActSetRecovery ActionKind = iota
	ActScaleRate              // multiply pacing rate by Factor
	ActSetWindowSize
	ActSetWindowKind
	ActNotifyApp
)

// Action is the action half of a TSA pair.
type Action struct {
	Kind     ActionKind
	Recovery mechanism.RecoveryKind
	Window   mechanism.WindowKind
	Size     int
	Factor   float64
	Note     string
}

func (a Action) String() string {
	switch a.Kind {
	case ActSetRecovery:
		return fmt.Sprintf("set-recovery(%v)", a.Recovery)
	case ActScaleRate:
		return fmt.Sprintf("scale-rate(%.2f)", a.Factor)
	case ActSetWindowSize:
		return fmt.Sprintf("set-window-size(%d)", a.Size)
	case ActSetWindowKind:
		return fmt.Sprintf("set-window(%v)", a.Window)
	case ActNotifyApp:
		return fmt.Sprintf("notify-app(%q)", a.Note)
	}
	return fmt.Sprintf("action(%d)", uint8(a.Kind))
}

// Rule is one Transport Service Adjustment pair with anti-flap controls.
type Rule struct {
	Cond   Cond
	Action Action
	// Cooldown suppresses re-firing for this long after the rule fires
	// (hysteresis against metric noise). Zero means 1s.
	Cooldown time.Duration
	// OneShot disables the rule after its first firing.
	OneShot bool
}

// Validate rejects malformed rules.
func (r *Rule) Validate() error {
	if r.Action.Kind == ActScaleRate && r.Action.Factor <= 0 {
		return fmt.Errorf("mantts: scale-rate rule needs positive factor")
	}
	if r.Action.Kind == ActSetWindowSize && r.Action.Size <= 0 {
		return fmt.Errorf("mantts: set-window-size rule needs positive size")
	}
	return nil
}

func (r Rule) String() string {
	return fmt.Sprintf("when %v do %v", r.Cond, r.Action)
}

// Engine evaluates a session's TSA rules against periodic metric samples.
type Engine struct {
	rules     []Rule
	lastFired []time.Duration
	disabled  []bool
	Fired     uint64
}

// NewEngine returns an engine over the rules. The slice is copied: the
// engine's policy state must not alias caller-owned storage, or a later
// mutation of the caller's slice would rewrite live rules.
func NewEngine(rules []Rule) *Engine {
	owned := make([]Rule, len(rules))
	copy(owned, rules)
	return &Engine{
		rules:     owned,
		lastFired: make([]time.Duration, len(rules)),
		disabled:  make([]bool, len(rules)),
	}
}

// Rules returns a copy of the engine's rule set. Mutating the returned
// slice does not affect evaluation.
func (e *Engine) Rules() []Rule {
	out := make([]Rule, len(e.rules))
	copy(out, e.rules)
	return out
}

// Evaluate returns the actions whose conditions hold at now, honoring
// cooldowns and one-shot flags.
func (e *Engine) Evaluate(now time.Duration, values map[MetricID]float64) []Action {
	var out []Action
	for i := range e.rules {
		r := &e.rules[i]
		if e.disabled[i] || !r.Cond.Holds(values) {
			continue
		}
		cd := r.Cooldown
		if cd == 0 {
			cd = time.Second
		}
		if e.lastFired[i] != 0 && now-e.lastFired[i] < cd {
			continue
		}
		e.lastFired[i] = now
		if r.OneShot {
			e.disabled[i] = true
		}
		e.Fired++
		out = append(out, r.Action)
	}
	return out
}

// fields is the rule's TLV table (rules travel inside ACDs).
func (r *Rule) fields() [11]wire.Field {
	return [...]wire.Field{
		{Tag: 1, Form: wire.U8, At: &r.Cond.Metric},
		{Tag: 2, Form: wire.U8, At: &r.Cond.Op},
		{Tag: 3, Form: wire.Nano, At: &r.Cond.Threshold},
		{Tag: 4, Form: wire.U8, At: &r.Action.Kind},
		{Tag: 5, Form: wire.U8, At: &r.Action.Recovery},
		{Tag: 6, Form: wire.U8, At: &r.Action.Window},
		{Tag: 7, Form: wire.U32, At: &r.Action.Size},
		{Tag: 8, Form: wire.Nano, At: &r.Action.Factor},
		{Tag: 9, Form: wire.Bytes, At: &r.Action.Note, Omit: r.Action.Note == ""},
		{Tag: 10, Form: wire.U64, At: &r.Cooldown},
		{Tag: 11, Form: wire.U8, At: &r.OneShot, Omit: !r.OneShot},
	}
}

// EncodeRule serializes a rule as TLV.
func EncodeRule(r *Rule) []byte {
	f := r.fields()
	return wire.Append(nil, f[:])
}

// DecodeRule parses a TLV-encoded rule.
func DecodeRule(b []byte) (*Rule, error) {
	r := &Rule{}
	f := r.fields()
	if err := wire.Decode(b, f[:]); err != nil {
		return nil, err
	}
	return r, nil
}
