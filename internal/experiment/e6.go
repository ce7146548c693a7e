package experiment

import (
	"fmt"
	"time"

	"adaptive/internal/baseline"
	"adaptive/internal/mechanism"
	"adaptive/internal/tko"
)

// RunE6 measures the TKO_Template cache (§4.2.2): session configuration
// cost when every request performs a full dynamic synthesis (cold cache)
// versus when a pre-assembled reconfigurable or static template matches.
func RunE6() []Table {
	t := Table{
		ID:      "E6",
		Title:   "TKO template cache: configuration cost per session",
		Headers: []string{"path", "ns/config", "cache hits", "dynamic syntheses"},
	}
	const n = 50_000
	reg := tko.DefaultRegistry()
	spec := mechanism.DefaultSpec()

	// Cold: a fresh synthesizer per request (no template survives).
	coldStart := time.Now()
	for i := 0; i < n/10; i++ {
		sy := tko.NewSynthesizer(reg)
		sp := spec
		if _, err := sy.Synthesize(&sp); err != nil {
			panic(err)
		}
	}
	coldNs := float64(time.Since(coldStart).Nanoseconds()) / float64(n/10)

	// Warm reconfigurable template.
	syWarm := tko.NewSynthesizer(reg)
	syWarm.InstallTemplate("common-reliable", tko.TemplateReconfigurable, spec)
	warmStart := time.Now()
	for i := 0; i < n; i++ {
		sp := spec
		if _, err := syWarm.Synthesize(&sp); err != nil {
			panic(err)
		}
	}
	warmNs := float64(time.Since(warmStart).Nanoseconds()) / float64(n)
	warmStats := syWarm.Stats()

	// Static template (baseline backward-compatibility path).
	syStatic := tko.NewSynthesizer(reg)
	baseline.InstallTemplates(syStatic)
	rd := baseline.RDTPSpec()
	staticStart := time.Now()
	var statics int
	for i := 0; i < n; i++ {
		sp := rd
		res, err := syStatic.Synthesize(&sp)
		if err != nil {
			panic(err)
		}
		if res.Static {
			statics++
		}
	}
	staticNs := float64(time.Since(staticStart).Nanoseconds()) / float64(n)
	if statics != n {
		panic("static template not recognized")
	}

	t.Rows = [][]string{
		{"dynamic synthesis (cold cache)", fmt.Sprintf("%.0f", coldNs), "0", fmt.Sprintf("%d", n/10)},
		{"reconfigurable template hit", fmt.Sprintf("%.0f", warmNs), fmt.Sprintf("%d", warmStats.TemplateHits), fmt.Sprintf("%d", warmStats.Synthesized)},
		{"static template hit (RDTP compat)", fmt.Sprintf("%.0f", staticNs), fmt.Sprintf("%d", n), "0"},
	}
	t.Notes = append(t.Notes,
		"a template hit runs the same Registry.Build as a miss; the rows differ by the miss's bookkeeping (two more specKey renders and the template install) and, in the cold row, a fresh synthesizer per request",
		"static-template sessions additionally refuse segue")
	return []Table{t}
}
