// Package scenario builds complete simulation scenarios from declarative
// JSON descriptions — topology, sessions, workloads, and timed network
// events — so alternative transport system designs can be compared without
// writing Go (the paper's "controlled prototyping environment for
// monitoring, analyzing, and experimenting", §1).
//
// A scenario document looks like:
//
//	{
//	  "hosts": ["client", "server"],
//	  "links": [
//	    {"from": "client", "to": "server", "bandwidth_bps": 10e6,
//	     "delay_ms": 10, "mtu": 1500, "drop_rate": 0.01, "queue_bytes": 65536},
//	    {"from": "server", "to": "client", "bandwidth_bps": 10e6, "delay_ms": 10, "mtu": 1500}
//	  ],
//	  "sessions": [
//	    {"name": "xfer", "from": "client", "to": "server", "port": 80,
//	     "acd": {"avg_bps": 8e6, "ordered": true},
//	     "workload": "generate bulk size=1048576 chunk=65536"}
//	  ],
//	  "events": [
//	    {"at_ms": 1000, "cross_traffic": {"from": "client", "to": "server", "rate_bps": 9e6, "pkt": 1000}},
//	    {"at_ms": 4000, "cross_traffic": {"from": "client", "to": "server", "rate_bps": 0}}
//	  ],
//	  "run_ms": 60000
//	}
//
// Fault-injection events drive the netsim fault subsystem: "link_state"
// takes a link down or up, "impair" attaches a Gilbert–Elliott burst-loss /
// reorder / corrupt profile (or clears it), and "partition" severs host
// groups until a heal. Run compiles them into one netsim.FaultPlan. An event
// that names a host pair acts on the link the pair is routed over at its
// instant — a declared one, or the one an earlier "route_switch" put in place —
// and Parse rejects the document when there is none. Sessions may carry "tsa"
// rules so the scenario demonstrates policy-driven reconfiguration under those
// faults (see scenarios/fault-burst.json).
//
// The world itself (kernel, hosts, links, nodes) is an internal/rig World.
//
// Workloads use the internal/measure specification language; ACDs use a
// JSON projection of the ADAPTIVE Communication Descriptor.
package scenario

import (
	"encoding/json"
	"fmt"
	"sort"
	"time"

	"adaptive"
	"adaptive/internal/mantts"
	"adaptive/internal/measure"
	"adaptive/internal/mechanism"
	"adaptive/internal/netsim"
	"adaptive/internal/rig"
	"adaptive/internal/unites"
	"adaptive/internal/workload"
)

// Document is the JSON schema root.
type Document struct {
	Seed     int64        `json:"seed"`
	Hosts    []string     `json:"hosts"`
	Links    []LinkDoc    `json:"links"`
	Groups   []GroupDoc   `json:"groups"`
	Sessions []SessionDoc `json:"sessions"`
	Events   []EventDoc   `json:"events"`
	RunMs    float64      `json:"run_ms"`
}

// LinkDoc describes one simplex link.
type LinkDoc struct {
	From         string  `json:"from"`
	To           string  `json:"to"`
	BandwidthBps float64 `json:"bandwidth_bps"`
	DelayMs      float64 `json:"delay_ms"`
	MTU          int     `json:"mtu"`
	DropRate     float64 `json:"drop_rate"`
	BER          float64 `json:"ber"`
	QueueBytes   int     `json:"queue_bytes"`
	JitterMs     float64 `json:"jitter_ms"`
}

// GroupDoc declares a multicast group and its members.
type GroupDoc struct {
	Name    string   `json:"name"`
	Members []string `json:"members"`
}

// ACDDoc is the JSON projection of the ADAPTIVE Communication Descriptor.
type ACDDoc struct {
	AvgBps        float64 `json:"avg_bps"`
	PeakBps       float64 `json:"peak_bps"`
	MaxLatencyMs  float64 `json:"max_latency_ms"`
	MaxJitterMs   float64 `json:"max_jitter_ms"`
	LossTolerance float64 `json:"loss_tolerance"`
	DurationMs    float64 `json:"duration_ms"`
	Ordered       bool    `json:"ordered"`
	DupSensitive  bool    `json:"dup_sensitive"`
	Priority      int     `json:"priority"`
}

// SessionDoc describes one dialed session and its traffic.
type SessionDoc struct {
	Name     string    `json:"name"`
	From     string    `json:"from"`
	To       string    `json:"to"` // host name or group name
	Port     uint16    `json:"port"`
	ACD      *ACDDoc   `json:"acd"`
	TSA      []RuleDoc `json:"tsa"`      // run-time adaptation rules
	Workload string    `json:"workload"` // measure-language generate statement
	StartMs  float64   `json:"start_ms"`
}

// RuleDoc is the JSON projection of one Transport Service Adjustment rule
// (<condition, action> with anti-flap controls).
type RuleDoc struct {
	Metric     string  `json:"metric"` // rtt|loss-rate|congestion|retransmit-rate|throughput|rcvbuf-fill|jitter
	Op         string  `json:"op"`     // "gt" or "lt"
	Threshold  float64 `json:"threshold"`
	Action     string  `json:"action"`   // set-recovery|scale-rate|set-window-size
	Recovery   string  `json:"recovery"` // none|go-back-n|selective-repeat|fec|fec-hybrid
	Factor     float64 `json:"factor"`
	Size       int     `json:"size"`
	CooldownMs float64 `json:"cooldown_ms"`
	OneShot    bool    `json:"one_shot"`
}

func (d *RuleDoc) rule() (mantts.Rule, error) {
	var r mantts.Rule
	m, err := mantts.ParseMetricID(d.Metric)
	if err != nil {
		return r, err
	}
	r.Cond = mantts.Cond{Metric: m, Threshold: d.Threshold}
	switch d.Op {
	case "gt":
		r.Cond.Op = mantts.OpGT
	case "lt":
		r.Cond.Op = mantts.OpLT
	default:
		return r, fmt.Errorf("unknown op %q", d.Op)
	}
	switch d.Action {
	case "set-recovery":
		rec, err := mechanism.ParseRecoveryKind(d.Recovery)
		if err != nil {
			return r, err
		}
		r.Action = mantts.Action{Kind: mantts.ActSetRecovery, Recovery: rec}
	case "scale-rate":
		r.Action = mantts.Action{Kind: mantts.ActScaleRate, Factor: d.Factor}
	case "set-window-size":
		r.Action = mantts.Action{Kind: mantts.ActSetWindowSize, Size: d.Size}
	default:
		return r, fmt.Errorf("unknown action %q", d.Action)
	}
	r.Cooldown = time.Duration(d.CooldownMs * float64(time.Millisecond))
	r.OneShot = d.OneShot
	return r, r.Validate()
}

// EventDoc is a timed network event.
type EventDoc struct {
	AtMs         float64          `json:"at_ms"`
	CrossTraffic *CrossTrafficDoc `json:"cross_traffic"`
	RouteSwitch  *RouteSwitchDoc  `json:"route_switch"`
	LinkState    *LinkStateDoc    `json:"link_state"`
	Impair       *ImpairDoc       `json:"impair"`
	Partition    *PartitionDoc    `json:"partition"`
	Migrate      *MigrateDoc      `json:"migrate"`
}

// MigrateDoc hands a session off to another host mid-run: the control plane
// freezes the source, transfers the epoch-stamped record, and the workload
// continues on the adopted connection (sends queue during the handoff).
type MigrateDoc struct {
	Session string `json:"session"` // session name
	To      string `json:"to"`      // target host name
}

// CrossTrafficDoc starts (or, with rate 0, stops) competing load on a link.
type CrossTrafficDoc struct {
	From    string  `json:"from"`
	To      string  `json:"to"`
	RateBps float64 `json:"rate_bps"`
	Pkt     int     `json:"pkt"`
}

// RouteSwitchDoc replaces the path between two hosts with a new link.
type RouteSwitchDoc struct {
	From string  `json:"from"`
	To   string  `json:"to"`
	Link LinkDoc `json:"link"`
}

// LinkStateDoc takes a link administratively down (or back up).
type LinkStateDoc struct {
	From string `json:"from"`
	To   string `json:"to"`
	Down bool   `json:"down"`
}

// ImpairDoc attaches (or, with clear, detaches) an impairment profile to a
// link: Gilbert–Elliott burst loss plus reorder/duplicate/corrupt rates.
type ImpairDoc struct {
	From           string  `json:"from"`
	To             string  `json:"to"`
	Clear          bool    `json:"clear"`
	PGoodToBad     float64 `json:"p_good_to_bad"`
	PBadToGood     float64 `json:"p_bad_to_good"`
	LossGood       float64 `json:"loss_good"`
	LossBad        float64 `json:"loss_bad"`
	ReorderRate    float64 `json:"reorder_rate"`
	ReorderDelayMs float64 `json:"reorder_delay_ms"`
	DupRate        float64 `json:"dup_rate"`
	CorruptRate    float64 `json:"corrupt_rate"`
}

func (d *ImpairDoc) impairment() netsim.Impairment {
	return netsim.Impairment{
		PGoodToBad: d.PGoodToBad, PBadToGood: d.PBadToGood,
		LossGood: d.LossGood, LossBad: d.LossBad,
		ReorderRate:  d.ReorderRate,
		ReorderDelay: time.Duration(d.ReorderDelayMs * float64(time.Millisecond)),
		DupRate:      d.DupRate,
		CorruptRate:  d.CorruptRate,
	}
}

// PartitionDoc severs two host groups (or, with heal, lifts every
// partition).
type PartitionDoc struct {
	A    []string `json:"a"`
	B    []string `json:"b"`
	Heal bool     `json:"heal"`
}

// SessionResult is one session's delivered outcome.
type SessionResult struct {
	Name      string
	Spec      adaptive.Spec
	Generated uint64
	Meter     *workload.Meter
	Sent      adaptive.Stats
}

// Result is the outcome of a scenario run.
type Result struct {
	Sessions []SessionResult
	Repo     *unites.Repository
	SimTime  time.Duration
}

// Runtime is a built, runnable scenario.
type Runtime struct {
	doc    Document
	World  *rig.World     // host i of the world is doc.Hosts[i]
	host   map[string]int // host name -> world index
	groups map[string]adaptive.HostID

	// Control is the deployment's controller, built only when the document
	// carries migrate events; every host is enrolled.
	Control *adaptive.ControlPlane
	senders map[string]*migratingSender
}

// migratingSender routes a workload's sends at the session's current owner:
// the source connection before a handoff, an internal queue while one is in
// flight, and the adopted connection afterwards. It runs entirely on the
// kernel loop, like the workload generators driving it.
type migratingSender struct {
	cur    *adaptive.Conn
	frozen bool
	queued [][]byte
}

func (ms *migratingSender) Send(data []byte) error {
	if ms.frozen {
		ms.queued = append(ms.queued, append([]byte(nil), data...))
		return nil
	}
	return ms.cur.Send(data)
}

func (ms *migratingSender) freeze() { ms.frozen = true }

// adopt points the sender at the surviving connection (the target's adopted
// copy on success, the resumed source on rollback) and flushes the queue.
func (ms *migratingSender) adopt(c *adaptive.Conn) error {
	ms.cur = c
	ms.frozen = false
	for _, data := range ms.queued {
		if err := c.Send(data); err != nil {
			return err
		}
	}
	ms.queued = nil
	return nil
}

// Parse decodes and validates a scenario document.
func Parse(raw []byte) (*Document, error) {
	var doc Document
	if err := json.Unmarshal(raw, &doc); err != nil {
		return nil, fmt.Errorf("scenario: %v", err)
	}
	if len(doc.Hosts) < 2 {
		return nil, fmt.Errorf("scenario: need at least two hosts")
	}
	names := map[string]bool{}
	for _, h := range doc.Hosts {
		if names[h] {
			return nil, fmt.Errorf("scenario: duplicate host %q", h)
		}
		names[h] = true
	}
	groups := map[string]bool{}
	for _, g := range doc.Groups {
		if names[g.Name] {
			return nil, fmt.Errorf("scenario: group %q collides with a host name", g.Name)
		}
		groups[g.Name] = true
		for _, m := range g.Members {
			if !names[m] {
				return nil, fmt.Errorf("scenario: group %q member %q is not a host", g.Name, m)
			}
		}
	}
	// linked is the set of host pairs with a link: the declared ones, then
	// those each route_switch adds as the events are walked in firing order.
	linked := map[[2]string]bool{}
	addLink := func(what, from, to string, l *LinkDoc) error {
		if !names[from] || !names[to] {
			return fmt.Errorf("scenario: %s %s->%s references unknown host", what, from, to)
		}
		if l.BandwidthBps <= 0 {
			return fmt.Errorf("scenario: %s %s->%s needs bandwidth_bps", what, from, to)
		}
		linked[[2]string{from, to}] = true
		return nil
	}
	for i := range doc.Links {
		l := &doc.Links[i]
		if err := addLink("link", l.From, l.To, l); err != nil {
			return nil, err
		}
	}
	for _, s := range doc.Sessions {
		if !names[s.From] {
			return nil, fmt.Errorf("scenario: session %q: unknown host %q", s.Name, s.From)
		}
		if !names[s.To] && !groups[s.To] {
			return nil, fmt.Errorf("scenario: session %q: unknown destination %q", s.Name, s.To)
		}
	}
	onLink := func(i int, kind, from, to string) error {
		if !names[from] || !names[to] {
			return fmt.Errorf("scenario: event %d %s references unknown host", i, kind)
		}
		if !linked[[2]string{from, to}] {
			return fmt.Errorf("scenario: event %d %s: no link %s->%s at that time", i, kind, from, to)
		}
		return nil
	}
	for _, i := range firingOrder(doc.Events) {
		ev := &doc.Events[i]
		switch {
		case ev.CrossTraffic != nil:
			if err := onLink(i, "cross_traffic", ev.CrossTraffic.From, ev.CrossTraffic.To); err != nil {
				return nil, err
			}
		case ev.RouteSwitch != nil:
			rs := ev.RouteSwitch
			if err := addLink(fmt.Sprintf("event %d route_switch", i), rs.From, rs.To, &rs.Link); err != nil {
				return nil, err
			}
		case ev.LinkState != nil:
			if err := onLink(i, "link_state", ev.LinkState.From, ev.LinkState.To); err != nil {
				return nil, err
			}
		case ev.Impair != nil:
			if err := onLink(i, "impair", ev.Impair.From, ev.Impair.To); err != nil {
				return nil, err
			}
			if !ev.Impair.Clear {
				imp := ev.Impair.impairment()
				if err := imp.Validate(); err != nil {
					return nil, fmt.Errorf("scenario: event %d: %v", i, err)
				}
			}
		case ev.Partition != nil:
			if !ev.Partition.Heal {
				for _, n := range append(append([]string(nil), ev.Partition.A...), ev.Partition.B...) {
					if !names[n] {
						return nil, fmt.Errorf("scenario: event %d partition references unknown host %q", i, n)
					}
				}
			}
		case ev.Migrate != nil:
			mg := ev.Migrate
			var sess *SessionDoc
			for j := range doc.Sessions {
				if doc.Sessions[j].Name == mg.Session {
					sess = &doc.Sessions[j]
				}
			}
			if sess == nil {
				return nil, fmt.Errorf("scenario: event %d migrate references unknown session %q", i, mg.Session)
			}
			if !names[mg.To] {
				return nil, fmt.Errorf("scenario: event %d migrate references unknown host %q", i, mg.To)
			}
			for _, g := range doc.Groups {
				if g.Name == sess.To {
					return nil, fmt.Errorf("scenario: event %d cannot migrate multicast session %q", i, mg.Session)
				}
			}
		}
	}
	if len(doc.Sessions) == 0 {
		return nil, fmt.Errorf("scenario: no sessions")
	}
	if doc.RunMs <= 0 {
		doc.RunMs = 60_000
	}
	return &doc, nil
}

// firingOrder lists the events' indices by time, document order within one
// instant: the order the kernel fires them in.
func firingOrder(evs []EventDoc) []int {
	order := make([]int, len(evs))
	for i := range order {
		order[i] = i
	}
	sort.SliceStable(order, func(a, b int) bool { return evs[order[a]].AtMs < evs[order[b]].AtMs })
	return order
}

func (l *LinkDoc) config() netsim.LinkConfig {
	mtu := l.MTU
	if mtu == 0 {
		mtu = 1500
	}
	return netsim.LinkConfig{
		Bandwidth: l.BandwidthBps,
		PropDelay: time.Duration(l.DelayMs * float64(time.Millisecond)),
		MTU:       mtu,
		DropRate:  l.DropRate,
		BER:       l.BER,
		QueueLen:  l.QueueBytes,
		Jitter:    time.Duration(l.JitterMs * float64(time.Millisecond)),
	}
}

func (a *ACDDoc) acd() mantts.QuantQoS {
	return mantts.QuantQoS{
		AvgThroughputBps:  a.AvgBps,
		PeakThroughputBps: a.PeakBps,
		MaxLatency:        time.Duration(a.MaxLatencyMs * float64(time.Millisecond)),
		MaxJitter:         time.Duration(a.MaxJitterMs * float64(time.Millisecond)),
		LossTolerance:     a.LossTolerance,
		Duration:          time.Duration(a.DurationMs * float64(time.Millisecond)),
	}
}

// Node returns the node running on the named host, or nil.
func (rt *Runtime) Node(name string) *adaptive.Node {
	i, ok := rt.host[name]
	if !ok {
		return nil
	}
	return rt.World.Nodes[i]
}

// Build constructs the world a parsed document describes: hosts, links,
// groups and nodes in document order, every node seeded with the document
// seed and named after its host, path knowledge seeded from the links.
func Build(doc *Document) (*Runtime, error) {
	w := rig.NewSim(doc.Seed+1, len(doc.Hosts))
	rt := &Runtime{
		doc:    *doc,
		World:  w,
		host:   make(map[string]int),
		groups: make(map[string]adaptive.HostID),
	}
	for i, name := range doc.Hosts {
		rt.host[name] = i
	}
	for _, l := range doc.Links {
		w.AddLink(rt.host[l.From], rt.host[l.To], l.config())
	}
	for _, g := range doc.Groups {
		id := w.Net.NewGroup()
		rt.groups[g.Name] = id
		for _, m := range g.Members {
			w.Net.Join(id, w.Hosts[rt.host[m]])
		}
	}
	for i, name := range doc.Hosts {
		if _, err := w.Node(i, doc.Seed, name); err != nil {
			return nil, err
		}
	}
	w.SeedPaths()
	// Migration needs the control plane; enroll every host.
	for _, ev := range doc.Events {
		if ev.Migrate == nil {
			continue
		}
		rt.Control = adaptive.NewControlPlane()
		rt.senders = make(map[string]*migratingSender)
		for _, name := range doc.Hosts {
			if err := rt.Control.Enroll(rt.Node(name), 0); err != nil {
				return nil, err
			}
		}
		break
	}
	return rt, nil
}

// Run executes the scenario and returns results.
func (rt *Runtime) Run() (*Result, error) {
	doc, w := &rt.doc, rt.World
	res := &Result{Repo: w.Repo}

	// Timed network events, walked in firing order so each names the link
	// its host pair is routed over at that instant. The fault events are one
	// declarative netsim.FaultPlan; at an instant shared with a cross-traffic,
	// route-switch or migrate event, the plan's events fire after it.
	plan := w.Net.NewFaultPlan()
	switched := make(map[[2]int]*netsim.Link)
	link := func(from, to string) *netsim.Link {
		key := [2]int{rt.host[from], rt.host[to]}
		if l, ok := switched[key]; ok {
			return l
		}
		return w.Link(key[0], key[1])
	}
	ids := func(names []string) []adaptive.HostID {
		out := make([]adaptive.HostID, len(names))
		for i, n := range names {
			out[i] = w.Hosts[rt.host[n]]
		}
		return out
	}
	for _, i := range firingOrder(doc.Events) {
		ev := &doc.Events[i]
		at := time.Duration(ev.AtMs * float64(time.Millisecond))
		switch {
		case ev.CrossTraffic != nil:
			ct := ev.CrossTraffic
			l, pkt := link(ct.From, ct.To), ct.Pkt
			if pkt == 0 {
				pkt = 1000
			}
			w.K.ScheduleAt(at, func() { l.StartCrossTraffic(ct.RateBps, pkt) })
		case ev.RouteSwitch != nil:
			rs := ev.RouteSwitch
			from, to := rt.host[rs.From], rt.host[rs.To]
			l := w.Net.NewLink(rs.Link.config())
			switched[[2]int{from, to}] = l
			w.K.ScheduleAt(at, func() { w.Net.SetRoute(w.Hosts[from], w.Hosts[to], l) })
		case ev.LinkState != nil:
			if ls := ev.LinkState; ls.Down {
				plan.LinkDown(at, link(ls.From, ls.To))
			} else {
				plan.LinkUp(at, link(ls.From, ls.To))
			}
		case ev.Impair != nil:
			if im := ev.Impair; im.Clear {
				plan.ClearImpair(at, link(im.From, im.To))
			} else {
				plan.Impair(at, link(im.From, im.To), im.impairment())
			}
		case ev.Partition != nil:
			if pt := ev.Partition; pt.Heal {
				plan.Heal(at)
			} else {
				plan.Partition(at, ids(pt.A), ids(pt.B))
			}
		case ev.Migrate != nil:
			w.K.ScheduleAt(at, func() { rt.startMigration(ev.Migrate) })
		}
	}
	if err := plan.Install(); err != nil {
		return nil, fmt.Errorf("scenario: %v", err)
	}

	// Sessions.
	for i := range doc.Sessions {
		sd := &doc.Sessions[i]
		srcNode := rt.Node(sd.From)
		port := sd.Port
		if port == 0 {
			port = 80
		}
		meter := workload.NewMeter(w.K)

		var participants []adaptive.Addr
		if gid, isGroup := rt.groups[sd.To]; isGroup {
			participants = append(participants, adaptive.Addr{Host: gid, Port: srcNode.Addr().Port})
			for _, g := range doc.Groups {
				if g.Name != sd.To {
					continue
				}
				for _, m := range g.Members {
					node := rt.Node(m)
					participants = append(participants, node.Addr())
					node.OnMulticastJoin(func(c *adaptive.Conn, _ adaptive.HostID) {
						c.OnDelivery(meter.OnDeliver)
					})
				}
			}
		} else {
			dstNode := rt.Node(sd.To)
			participants = []adaptive.Addr{dstNode.Addr()}
			if err := dstNode.Listen(port, nil, func(c *adaptive.Conn) {
				c.OnDelivery(meter.OnDeliver)
			}); err != nil {
				return nil, err
			}
		}

		acdDoc := sd.ACD
		if acdDoc == nil {
			acdDoc = &ACDDoc{Ordered: true}
		}
		acd := &adaptive.ACD{
			Participants: participants,
			RemotePort:   port,
			Quant:        acdDoc.acd(),
			Qual: mantts.QualQoS{
				Ordered: acdDoc.Ordered, DupSensitive: acdDoc.DupSensitive,
				Priority: acdDoc.Priority,
			},
		}
		for _, rd := range sd.TSA {
			rule, err := rd.rule()
			if err != nil {
				return nil, fmt.Errorf("scenario: session %q tsa: %v", sd.Name, err)
			}
			acd.TSA = append(acd.TSA, rule)
		}
		if len(acd.TSA) > 0 && acd.TMC.SampleRate == 0 {
			// Rules need metric samples to evaluate against.
			acd.TMC.SampleRate = 100 * time.Millisecond
		}
		conn, err := srcNode.Dial(acd, &adaptive.DialOptions{LocalPort: port})
		if err != nil {
			return nil, fmt.Errorf("scenario: session %q: %v", sd.Name, err)
		}
		// With a control plane active, sends go through a migration-aware
		// proxy and the session is placed under the controller's lease.
		var out workload.Sender = conn
		var sender *migratingSender
		if rt.Control != nil {
			if err := rt.Control.Place(conn); err != nil {
				return nil, fmt.Errorf("scenario: session %q: %v", sd.Name, err)
			}
			sender = &migratingSender{cur: conn}
			rt.senders[sd.Name] = sender
			out = sender
		}

		mspec, err := measure.Parse(sd.Workload)
		if err != nil {
			return nil, fmt.Errorf("scenario: session %q: %v", sd.Name, err)
		}
		start, generated, err := mspec.Workload.Build(srcNode.Stack().Timers(), out)
		if err != nil {
			return nil, fmt.Errorf("scenario: session %q: %v", sd.Name, err)
		}
		w.K.ScheduleAt(time.Duration(sd.StartMs*float64(time.Millisecond)), start)

		sr := SessionResult{Name: sd.Name, Meter: meter}
		connRef := conn
		genRef := generated
		idx := len(res.Sessions)
		res.Sessions = append(res.Sessions, sr)
		// Finalize after the run, against whichever connection survived.
		defer func() {
			final := connRef
			if sender != nil {
				final = sender.cur
			}
			res.Sessions[idx].Spec = final.Spec()
			res.Sessions[idx].Generated = genRef()
			res.Sessions[idx].Sent = final.Stats()
		}()
	}

	w.K.RunUntil(time.Duration(doc.RunMs * float64(time.Millisecond)))
	res.SimTime = w.K.Now()
	return res, nil
}

// startMigration kicks off one migrate event: freeze the workload's sends
// into the proxy queue, hand the session off, and poll (on the virtual
// clock, so runs stay deterministic) until the handoff resolves — flushing
// the queue into the adopted connection, or back into the resumed source on
// rollback.
func (rt *Runtime) startMigration(mg *MigrateDoc) {
	sender := rt.senders[mg.Session]
	if sender == nil || rt.Control == nil {
		return
	}
	src := sender.cur
	m, err := rt.Control.MigrateSession(src, rt.World.Hosts[rt.host[mg.To]])
	if err != nil {
		return // e.g. already on the target host; the workload carries on
	}
	sender.freeze()
	var watch func()
	watch = func() {
		select {
		case <-m.Done():
			if m.Err() == nil && m.Conn() != nil {
				sender.adopt(m.Conn())
			} else {
				sender.adopt(src)
			}
		default:
			rt.World.K.ScheduleAt(rt.World.K.Now()+5*time.Millisecond, watch)
		}
	}
	watch()
}

// Load parses, builds, and runs a scenario in one call.
func Load(raw []byte) (*Result, error) {
	doc, err := Parse(raw)
	if err != nil {
		return nil, err
	}
	rt, err := Build(doc)
	if err != nil {
		return nil, err
	}
	return rt.Run()
}
