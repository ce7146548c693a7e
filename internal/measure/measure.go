// Package measure implements the language-based measurement interface of
// UNITES (§4.3: "metrics also may be requested using either a graphics-based
// or language-based interface ... a specification language that indicates
// what measurements to collect and what traffic to generate").
//
// The language is a small semicolon-separated statement list:
//
//	collect rel.retransmissions, app.* every 50ms;
//	generate cbr size=160 interval=20ms count=500;
//	generate bulk size=1048576 chunk=65536
//
// Statements:
//
//	collect <metric>[, <metric>...] [every <duration>]
//	    Builds the Transport Measurement Component: the metric allow-list
//	    (a trailing ".*" or "." selects a family) and the policy sampling
//	    rate.
//	generate <kind> <key>=<value>...
//	    Describes the traffic to generate. Kinds and keys:
//	      cbr       size, interval, count
//	      vbr       rate (fps), mean, burst, gop, count
//	      bulk      size, chunk
//	      keystroke gap, count
//	      reqresp   size, think, count
package measure

import (
	"fmt"
	"strconv"
	"strings"
	"time"

	"adaptive/internal/event"
	"adaptive/internal/mantts"
	"adaptive/internal/workload"
)

// WorkloadKind enumerates generator kinds the language can request.
type WorkloadKind int

const (
	WorkloadNone WorkloadKind = iota
	WorkloadCBR
	WorkloadVBR
	WorkloadBulk
	WorkloadKeystroke
	WorkloadReqResp
)

func (k WorkloadKind) String() string {
	switch k {
	case WorkloadNone:
		return "none"
	case WorkloadCBR:
		return "cbr"
	case WorkloadVBR:
		return "vbr"
	case WorkloadBulk:
		return "bulk"
	case WorkloadKeystroke:
		return "keystroke"
	case WorkloadReqResp:
		return "reqresp"
	}
	return fmt.Sprintf("workload(%d)", int(k))
}

// WorkloadSpec is a parsed generate statement.
type WorkloadSpec struct {
	Kind     WorkloadKind
	Size     int
	Chunk    int
	Interval time.Duration
	Rate     float64 // frames/sec for vbr
	Mean     int
	Burst    float64
	GOP      int
	Gap      time.Duration
	Think    time.Duration
	Count    uint64
}

// Spec is a fully parsed measurement specification.
type Spec struct {
	TMC      mantts.TMC
	Workload WorkloadSpec
}

// Parse compiles a specification string.
func Parse(input string) (*Spec, error) {
	spec := &Spec{}
	for _, stmt := range strings.Split(input, ";") {
		stmt = strings.TrimSpace(stmt)
		if stmt == "" {
			continue
		}
		fields := strings.Fields(stmt)
		switch strings.ToLower(fields[0]) {
		case "collect":
			if err := spec.parseCollect(stmt[len(fields[0]):]); err != nil {
				return nil, err
			}
		case "generate":
			if err := spec.parseGenerate(fields[1:]); err != nil {
				return nil, err
			}
		default:
			return nil, fmt.Errorf("measure: unknown statement %q", fields[0])
		}
	}
	return spec, nil
}

func (s *Spec) parseCollect(rest string) error {
	rest = strings.TrimSpace(rest)
	// Split off the optional "every <dur>" clause.
	if i := strings.LastIndex(strings.ToLower(rest), " every "); i >= 0 {
		durStr := strings.TrimSpace(rest[i+len(" every "):])
		d, err := time.ParseDuration(durStr)
		if err != nil {
			return fmt.Errorf("measure: bad sampling interval %q: %v", durStr, err)
		}
		if d <= 0 {
			return fmt.Errorf("measure: non-positive sampling interval %v", d)
		}
		s.TMC.SampleRate = d
		rest = rest[:i]
	}
	for _, m := range strings.Split(rest, ",") {
		m = strings.TrimSpace(m)
		if m == "" {
			continue
		}
		// Family selectors: "rel.*" and "rel." both mean the family.
		m = strings.TrimSuffix(m, "*")
		s.TMC.Metrics = append(s.TMC.Metrics, m)
	}
	if len(s.TMC.Metrics) == 0 {
		return fmt.Errorf("measure: collect statement names no metrics")
	}
	return nil
}

func (s *Spec) parseGenerate(args []string) error {
	if len(args) == 0 {
		return fmt.Errorf("measure: generate statement names no workload")
	}
	w := WorkloadSpec{Burst: 1, GOP: 12}
	switch strings.ToLower(args[0]) {
	case "cbr":
		w.Kind = WorkloadCBR
	case "vbr":
		w.Kind = WorkloadVBR
	case "bulk":
		w.Kind = WorkloadBulk
	case "keystroke":
		w.Kind = WorkloadKeystroke
	case "reqresp":
		w.Kind = WorkloadReqResp
	default:
		return fmt.Errorf("measure: unknown workload %q", args[0])
	}
	for _, kv := range args[1:] {
		key, val, ok := strings.Cut(kv, "=")
		if !ok {
			return fmt.Errorf("measure: malformed parameter %q (want key=value)", kv)
		}
		var err error
		switch strings.ToLower(key) {
		case "size":
			w.Size, err = strconv.Atoi(val)
		case "chunk":
			w.Chunk, err = strconv.Atoi(val)
		case "interval":
			w.Interval, err = time.ParseDuration(val)
		case "rate":
			w.Rate, err = strconv.ParseFloat(val, 64)
		case "mean":
			w.Mean, err = strconv.Atoi(val)
		case "burst":
			w.Burst, err = strconv.ParseFloat(val, 64)
		case "gop":
			w.GOP, err = strconv.Atoi(val)
		case "gap":
			w.Gap, err = time.ParseDuration(val)
		case "think":
			w.Think, err = time.ParseDuration(val)
		case "count":
			var c int
			c, err = strconv.Atoi(val)
			w.Count = uint64(c)
		default:
			return fmt.Errorf("measure: unknown parameter %q for %v", key, w.Kind)
		}
		if err != nil {
			return fmt.Errorf("measure: bad value %q for %s: %v", val, key, err)
		}
	}
	if err := w.validate(); err != nil {
		return err
	}
	s.Workload = w
	return nil
}

func (w *WorkloadSpec) validate() error {
	switch w.Kind {
	case WorkloadCBR:
		if w.Size <= 0 || w.Interval <= 0 {
			return fmt.Errorf("measure: cbr needs size and interval")
		}
	case WorkloadVBR:
		if w.Rate <= 0 || w.Mean <= 0 {
			return fmt.Errorf("measure: vbr needs rate and mean")
		}
	case WorkloadBulk:
		if w.Size <= 0 {
			return fmt.Errorf("measure: bulk needs size")
		}
	case WorkloadKeystroke:
		if w.Gap <= 0 {
			return fmt.Errorf("measure: keystroke needs gap")
		}
	case WorkloadReqResp:
		if w.Size <= 0 || w.Think < 0 {
			return fmt.Errorf("measure: reqresp needs size")
		}
	}
	return nil
}

// Build instantiates the described generator against a sender, returning a
// start function and an accessor for the generated count.
func (w *WorkloadSpec) Build(timers *event.Manager, out workload.Sender) (start func(), generated func() uint64, err error) {
	switch w.Kind {
	case WorkloadCBR:
		g := &workload.CBR{Timers: timers, Out: out, MsgSize: w.Size, Interval: w.Interval}
		return func() { g.Start(w.Count) }, func() uint64 { return g.Generated }, nil
	case WorkloadVBR:
		g := &workload.VBR{Timers: timers, Out: out, FrameRate: w.Rate, MeanSize: w.Mean, Burst: w.Burst, GroupLen: w.GOP}
		return func() { g.Start(w.Count) }, func() uint64 { return g.Generated }, nil
	case WorkloadBulk:
		g := &workload.Bulk{Out: out, TotalSize: w.Size, ChunkSize: w.Chunk}
		return func() { g.Start(timers.Clock()) }, func() uint64 { return g.Generated }, nil
	case WorkloadKeystroke:
		g := &workload.Keystroke{Timers: timers, Out: out, MeanGap: w.Gap, Seed: 1}
		return func() { g.Start(w.Count) }, func() uint64 { return g.Generated }, nil
	case WorkloadReqResp:
		return nil, nil, fmt.Errorf("measure: reqresp needs application wiring (use the workload package directly)")
	}
	return nil, nil, fmt.Errorf("measure: no workload specified")
}
