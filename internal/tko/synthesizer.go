package tko

import (
	"fmt"

	"adaptive/internal/mechanism"
	"adaptive/internal/session"
)

// TemplateKind distinguishes the two TKO_Template flavors (§4.2.2).
type TemplateKind int

const (
	// TemplateReconfigurable sessions accept segue (default).
	TemplateReconfigurable TemplateKind = iota
	// TemplateStatic sessions are guaranteed not to change: segue is
	// refused, allowing maximal customization.
	TemplateStatic
)

// Template is a cached, pre-validated session configuration for a commonly
// requested SCS.
type Template struct {
	Name string
	Kind TemplateKind
	Spec mechanism.Spec
}

// Stats counts synthesizer activity (whitebox metrics for experiment E6).
type Stats struct {
	Synthesized  uint64 // full dynamic syntheses performed
	TemplateHits uint64 // requests served from the template cache
	TemplateMiss uint64
}

// Synthesizer performs Stage III of the MANTTS transformation.
type Synthesizer struct {
	reg       *Registry
	templates map[string]*Template
	stats     Stats
}

// NewSynthesizer returns a synthesizer over the registry.
func NewSynthesizer(reg *Registry) *Synthesizer {
	return &Synthesizer{reg: reg, templates: make(map[string]*Template)}
}

// Stats returns a copy of the counters.
func (sy *Synthesizer) Stats() Stats { return sy.stats }

// specKey canonicalizes the template-relevant portion of a Spec.
func specKey(s *mechanism.Spec) string {
	return fmt.Sprintf("c%d.r%d.w%d.o%d.k%d.ws%d.fg%d.rate%.0f.mss%d.lt%v.mc%v",
		s.ConnMgmt, s.Recovery, s.Window, s.Order, s.Checksum,
		s.WindowSize, s.FECGroup, s.RateBps, s.MSS, s.LossTolerant, s.Multicast)
}

// InstallTemplate registers a pre-assembled configuration in the cache.
func (sy *Synthesizer) InstallTemplate(name string, kind TemplateKind, spec mechanism.Spec) {
	spec.Normalize()
	t := &Template{Name: name, Kind: kind, Spec: spec}
	sy.templates[specKey(&spec)] = t
}

// Lookup finds a cached template matching the spec, or nil.
func (sy *Synthesizer) Lookup(spec *mechanism.Spec) *Template {
	return sy.templates[specKey(spec)]
}

// Result describes how a synthesis request was satisfied.
type Result struct {
	Slots        session.Slots
	FromTemplate *Template // nil when dynamically synthesized
	Static       bool      // session must refuse segue
}

// Synthesize builds a slot table for the spec, consulting the template
// cache first. A cache miss performs a full dynamic synthesis and installs a
// reconfigurable template so subsequent identical requests hit (§4.2.2: "if
// a pre-assembled TKO_Template does not exist to match an SCS request, TKO
// session architecture is responsible for dynamically synthesizing one").
func (sy *Synthesizer) Synthesize(spec *mechanism.Spec) (Result, error) {
	spec.Normalize()
	if t := sy.Lookup(spec); t != nil {
		sy.stats.TemplateHits++
		slots, err := sy.reg.Build(spec)
		if err != nil {
			return Result{}, err
		}
		return Result{
			Slots:        slots,
			FromTemplate: t,
			Static:       t.Kind == TemplateStatic,
		}, nil
	}
	sy.stats.TemplateMiss++
	sy.stats.Synthesized++
	slots, err := sy.reg.Build(spec)
	if err != nil {
		return Result{}, err
	}
	cp := *spec
	sy.templates[specKey(spec)] = &Template{Name: "auto:" + specKey(spec), Kind: TemplateReconfigurable, Spec: cp}
	return Result{Slots: slots}, nil
}

// Factory returns a session.Factory for per-slot re-synthesis during
// negotiation adjustment and policy reconfiguration.
func (sy *Synthesizer) Factory() session.Factory {
	return func(s *mechanism.Spec) (session.Slots, error) { return sy.reg.Build(s) }
}
