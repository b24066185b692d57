// Package scenario declares the workload presets the experiment
// pipeline runs against. A Spec is pure data — how large the landscape
// is, how much traffic hits it, how big the honest relay network is —
// and the presets below are the named scenarios every layer consumes:
// experiments.ConfigFromSpec turns one into a study configuration,
// cmd/hsstudy selects one with -scenario, and the examples/ programs
// each start from the preset that matches their workload. Adding a
// workload means adding a preset here (plus, if it needs new artefacts,
// registering experiments) — no CLI, harness or substrate edits.
package scenario

import (
	"fmt"
	"strings"
)

// Preset names.
const (
	// Laptop is the default: a 5%-scale landscape whose result shapes
	// match the paper on a developer machine in seconds.
	Laptop = "laptop"
	// Smoke is the smallest useful study — demos, CI smoke jobs.
	Smoke = "smoke"
	// PaperScale reproduces the paper's February 2013 measurement:
	// 39,824 services, a 1,400-relay network, the 58-IP trawling fleet.
	PaperScale = "paper-scale"
	// Stress drives the full-scale landscape with several times the
	// paper's traffic and relay churn surface, for throughput work.
	Stress = "stress"
	// BotnetHeavy skews the population towards Skynet bots and C&C
	// traffic — the Section III census workload.
	BotnetHeavy = "botnet-heavy"
	// PaperScaleX100 stretches the paper's measurement a hundredfold
	// along the time axis — 100x the trawl rotation steps and a
	// 100x-longer tracking window. Every study streams its time axis, so
	// peak live heap stays bounded rather than growing with the axis.
	PaperScaleX100 = "paper-scale-x100"
)

// Spec is one declarative workload: everything a study needs to size
// its substrates and traffic, independent of seed and worker count
// (those stay runtime knobs).
type Spec struct {
	// Name is the preset key (CLI: -scenario NAME).
	Name string
	// Description is the one-line summary `hsstudy -list` prints.
	Description string
	// Scale shrinks the hidden-service population (1.0 = the paper's
	// 39,824 services).
	Scale float64
	// Clients is the simulated client population for traffic-driven
	// experiments.
	Clients int
	// TrawlIPs / TrawlSteps size the collection fleet.
	TrawlIPs   int
	TrawlSteps int
	// Relays sizes the honest relay network.
	Relays int
	// BotFactor scales the Skynet bot population relative to the
	// paper's calibrated count (0 means 1.0, the paper's mix).
	BotFactor float64
	// TrackingDays overrides the Section VII consensus-history window
	// in days (0 = the tracking substrate's default).
	TrackingDays int
	// PopularityTopN is how many head rows Table II always prints
	// (below-top rows still appear when labelled). 0 = the experiment
	// default (the paper's 30).
	PopularityTopN int
}

// TrackingWindow returns the Section VII history length in days: the
// preset's TrackingDays when set, otherwise def (the tracking
// substrate's own default).
func (s Spec) TrackingWindow(def int) int {
	if s.TrackingDays > 0 {
		return s.TrackingDays
	}
	return def
}

// Presets returns every named scenario, in listing order. The slice and
// its Specs are fresh copies; callers may tweak them freely.
func Presets() []Spec {
	return []Spec{
		{
			Name:           Laptop,
			Description:    "default 5%-scale study; paper shapes in seconds on one machine",
			Scale:          0.05,
			Clients:        1500,
			TrawlIPs:       30,
			TrawlSteps:     8,
			Relays:         350,
			PopularityTopN: 30,
		},
		{
			Name:           Smoke,
			Description:    "smallest useful landscape, for demos and CI smoke runs",
			Scale:          0.03,
			Clients:        500,
			TrawlIPs:       20,
			TrawlSteps:     5,
			Relays:         300,
			PopularityTopN: 30,
		},
		{
			Name:           PaperScale,
			Description:    "the paper's Feb 2013 measurement: 39,824 services, 1,400 relays, 58-IP fleet",
			Scale:          1.0,
			Clients:        4000,
			TrawlIPs:       58,
			TrawlSteps:     12,
			Relays:         1400,
			PopularityTopN: 30,
		},
		{
			Name:           Stress,
			Description:    "full-scale landscape under 3x the paper's traffic and a doubled relay network",
			Scale:          1.0,
			Clients:        12000,
			TrawlIPs:       116,
			TrawlSteps:     24,
			Relays:         2800,
			TrackingDays:   240,
			PopularityTopN: 30,
		},
		{
			Name:           PaperScaleX100,
			Description:    "paper landscape stretched 100x along the time axis (1,200 trawl steps, 12,000 tracking days)",
			Scale:          1.0,
			Clients:        4000,
			TrawlIPs:       58,
			TrawlSteps:     1200,
			Relays:         1400,
			TrackingDays:   12000,
			PopularityTopN: 30,
		},
		{
			Name:           BotnetHeavy,
			Description:    "Skynet-bot-skewed population with C&C-dominated traffic (Section III census)",
			Scale:          0.05,
			Clients:        3000,
			TrawlIPs:       30,
			TrawlSteps:     8,
			Relays:         350,
			BotFactor:      2.5,
			PopularityTopN: 30,
		},
	}
}

// Names lists the preset names in listing order.
func Names() []string {
	presets := Presets()
	out := make([]string, len(presets))
	for i, s := range presets {
		out[i] = s.Name
	}
	return out
}

// Lookup returns the named preset.
func Lookup(name string) (Spec, error) {
	for _, s := range Presets() {
		if s.Name == name {
			return s, nil
		}
	}
	return Spec{}, fmt.Errorf("scenario: unknown preset %q (have: %s)", name, strings.Join(Names(), ", "))
}

// MustLookup is Lookup for preset names known at compile time.
func MustLookup(name string) Spec {
	s, err := Lookup(name)
	if err != nil {
		panic(err)
	}
	return s
}
