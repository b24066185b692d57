package experiments

import (
	"testing"
	"time"

	"torhs/internal/core/trawl"
	"torhs/internal/onion"
	"torhs/internal/relaynet"
	"torhs/internal/scenario"
	"torhs/internal/simnet"
)

// trawlSpan returns the first and last instants a study's trawls publish
// at, and the maximum clock skew of their clients.
func trawlSpan(cfg Config) (first, last time.Time, skew time.Duration) {
	first = relaynet.DefaultFleetConfig(cfg.Seed).Start.Add(trawlLead)
	last = first.Add(time.Duration(cfg.TrawlSteps-1) * trawl.StepLen)
	return first, last, simnet.MaxSkew
}

// TestStudySecretTableCoversX100Axis checks, without running a study,
// that the study-wide secret table of the longest preset covers every
// period its trawls publish in or its skewed clients fetch in, and the
// popularity resolution window, so no derivation along the x100 axis
// falls back to computing its secret part.
func TestStudySecretTableCoversX100Axis(t *testing.T) {
	cfg := ConfigFromSpec(scenario.MustLookup(scenario.PaperScaleX100), 1)
	env, err := NewEnv(cfg)
	if err != nil {
		t.Fatal(err)
	}
	table := env.studySecretTable()
	first, last, skew := trawlSpan(cfg)
	if !table.Covers(first.Add(-skew), last.Add(trawl.StepLen+skew)) {
		t.Fatalf("table misses part of the skewed trawl span %v .. %v", first, last.Add(trawl.StepLen))
	}
	if !table.Covers(first.Add(-popularityWindow), first.Add(popularityWindow)) {
		t.Fatal("table misses part of the popularity window")
	}
	base := relaynet.DefaultFleetConfig(cfg.Seed).Start
	if !table.Covers(base.Add(-deanonReach-skew), base.Add(deanonReach+skew)) {
		t.Fatal("table misses part of the deanonymisation windows")
	}
}

// TestTrawlsDeriveEachDescriptorIDOnce pins the number of descriptor IDs
// a smoke study's two trawls derive for publication: each period one of
// their publish instants reaches is derived once, for every service and
// replica, however many steps and trawls publish in it.
func TestTrawlsDeriveEachDescriptorIDOnce(t *testing.T) {
	cfg := ConfigFromSpec(scenario.MustLookup(scenario.Smoke), 42)
	s, err := NewStudy(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := s.RunCollectionComparison(); err != nil {
		t.Fatal(err)
	}
	if _, err := s.RunPopularity(); err != nil {
		t.Fatal(err)
	}
	first, last, _ := trawlSpan(cfg)
	// An instant reaches its own day's period and the next (a service's
	// period rolls over at a per-service offset within the day).
	day := func(at time.Time) int { return int(at.Unix() / 86400) }
	periods := day(last) + 1 - day(first) + 1
	services := len(s.Population().WithDescriptor())
	want := services * onion.Replicas * periods
	if got := s.Population().DerivedDescriptorIDs(); got != want {
		t.Fatalf("trawls derived %d descriptor IDs, want %d (%d services × %d replicas × %d periods); one derivation per service, replica and step would be %d",
			got, want, services, onion.Replicas, periods, services*onion.Replicas*cfg.TrawlSteps*2)
	}
}
