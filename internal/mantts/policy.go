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

// --- rule wire codec (rules travel inside ACDs) ---

const (
	ruleTagMetric   uint16 = 1
	ruleTagOp       uint16 = 2
	ruleTagThresh   uint16 = 3
	ruleTagActKind  uint16 = 4
	ruleTagRecovery uint16 = 5
	ruleTagWindow   uint16 = 6
	ruleTagSize     uint16 = 7
	ruleTagFactor   uint16 = 8
	ruleTagNote     uint16 = 9
	ruleTagCooldown uint16 = 10
	ruleTagOneShot  uint16 = 11
)

// EncodeRule serializes a rule as TLV.
func EncodeRule(r *Rule) []byte {
	var w wire.TLVWriter
	w.PutU8(ruleTagMetric, uint8(r.Cond.Metric))
	w.PutU8(ruleTagOp, uint8(r.Cond.Op))
	w.PutU64(ruleTagThresh, uint64(r.Cond.Threshold*1e9))
	w.PutU8(ruleTagActKind, uint8(r.Action.Kind))
	w.PutU8(ruleTagRecovery, uint8(r.Action.Recovery))
	w.PutU8(ruleTagWindow, uint8(r.Action.Window))
	w.PutU32(ruleTagSize, uint32(r.Action.Size))
	w.PutU64(ruleTagFactor, uint64(r.Action.Factor*1e9))
	if r.Action.Note != "" {
		w.PutString(ruleTagNote, r.Action.Note)
	}
	w.PutU64(ruleTagCooldown, uint64(r.Cooldown))
	if r.OneShot {
		w.PutU8(ruleTagOneShot, 1)
	}
	return w.Bytes()
}

// DecodeRule parses a TLV-encoded rule.
func DecodeRule(b []byte) (*Rule, error) {
	r := &Rule{}
	rd := wire.NewTLVReader(b)
	for {
		tag, val, ok, err := rd.Next()
		if err != nil {
			return nil, err
		}
		if !ok {
			break
		}
		switch tag {
		case ruleTagMetric:
			r.Cond.Metric = MetricID(wire.U8(val))
		case ruleTagOp:
			r.Cond.Op = Op(wire.U8(val))
		case ruleTagThresh:
			r.Cond.Threshold = float64(wire.U64(val)) / 1e9
		case ruleTagActKind:
			r.Action.Kind = ActionKind(wire.U8(val))
		case ruleTagRecovery:
			r.Action.Recovery = mechanism.RecoveryKind(wire.U8(val))
		case ruleTagWindow:
			r.Action.Window = mechanism.WindowKind(wire.U8(val))
		case ruleTagSize:
			r.Action.Size = int(wire.U32(val))
		case ruleTagFactor:
			r.Action.Factor = float64(wire.U64(val)) / 1e9
		case ruleTagNote:
			r.Action.Note = string(val)
		case ruleTagCooldown:
			r.Cooldown = time.Duration(wire.U64(val))
		case ruleTagOneShot:
			r.OneShot = wire.U8(val) == 1
		}
	}
	return r, nil
}
