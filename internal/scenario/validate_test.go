package scenario_test

import (
	"testing"

	"torhs/internal/experiments"
	"torhs/internal/scenario"
)

// A Spec is checked where it becomes a study: experiments.NewEnv rejects
// each structurally invalid field before any experiment runs.
func TestValidateRejectsBadFields(t *testing.T) {
	good := scenario.MustLookup(scenario.Laptop)
	if _, err := experiments.NewEnv(experiments.ConfigFromSpec(good, 1)); err != nil {
		t.Fatalf("laptop preset rejected: %v", err)
	}
	for _, tc := range []struct {
		name   string
		mutate func(*scenario.Spec)
	}{
		{"zero scale", func(s *scenario.Spec) { s.Scale = 0 }},
		{"overscale", func(s *scenario.Spec) { s.Scale = 1.5 }},
		{"no clients", func(s *scenario.Spec) { s.Clients = 0 }},
		{"no fleet", func(s *scenario.Spec) { s.TrawlIPs = 0 }},
		{"no trawl steps", func(s *scenario.Spec) { s.TrawlSteps = 0 }},
		{"no relays", func(s *scenario.Spec) { s.Relays = 0 }},
		{"negative bot factor", func(s *scenario.Spec) { s.BotFactor = -1 }},
		{"negative tracking days", func(s *scenario.Spec) { s.TrackingDays = -1 }},
		{"negative popularity topN", func(s *scenario.Spec) { s.PopularityTopN = -1 }},
	} {
		sp := good
		tc.mutate(&sp)
		if _, err := experiments.NewEnv(experiments.ConfigFromSpec(sp, 1)); err == nil {
			t.Errorf("%s accepted", tc.name)
		}
	}
}
