package trawl

import (
	"context"
	"testing"
	"time"

	"torhs/internal/geo"
	"torhs/internal/hspop"
	"torhs/internal/onion"
	"torhs/internal/relaynet"
)

func TestNewTrawlerValidation(t *testing.T) {
	cases := []struct {
		name string
		mod  func(*Config)
	}{
		{"zero IPs", func(c *Config) { c.IPs = 0 }},
		{"zero steps", func(c *Config) { c.Steps = 0 }},
		{"zero step length", func(c *Config) { c.StepLen = 0 }},
		{"short lead", func(c *Config) { c.DeployLead = 10 * time.Hour }},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			cfg := DefaultConfig(1)
			tc.mod(&cfg)
			if _, err := NewTrawler(cfg); err == nil {
				t.Fatal("bad config accepted")
			}
		})
	}
}

func TestRunWithoutDeployFails(t *testing.T) {
	tr, err := NewTrawler(DefaultConfig(1))
	if err != nil {
		t.Fatal(err)
	}
	if _, err := tr.Run(context.Background(), nil, nil, nil, time.Now()); err == nil {
		t.Fatal("Run without Deploy succeeded")
	}
}

func setupTrawl(t *testing.T, seed int64, steps int, driveTraffic bool) (*Trawler, *relaynet.Sim, *hspop.Population, *geo.DB, time.Time) {
	t.Helper()
	fleet := relaynet.DefaultFleetConfig(seed)
	fleet.Days = 1
	fleet.InitialRelays = 300
	fleet.FinalRelays = 300
	sim, err := relaynet.NewSim(fleet)
	if err != nil {
		t.Fatal(err)
	}

	cfg := DefaultConfig(seed)
	cfg.IPs = 20
	cfg.Steps = steps
	cfg.DriveTraffic = driveTraffic
	cfg.ClientConfig.Clients = 300
	tr, err := NewTrawler(cfg)
	if err != nil {
		t.Fatal(err)
	}

	popCfg := hspop.TestConfig(seed)
	popCfg.Scale = 0.02
	pop, err := hspop.Generate(context.Background(), popCfg)
	if err != nil {
		t.Fatal(err)
	}
	db, err := geo.NewDB(geo.DefaultBotnetMix())
	if err != nil {
		t.Fatal(err)
	}
	start := fleet.Start.Add(48 * time.Hour)
	tr.Deploy(sim, start)
	return tr, sim, pop, db, start
}

func TestTrawlCollectsMostAddresses(t *testing.T) {
	tr, sim, pop, db, start := setupTrawl(t, 2, 8, false)
	h, err := tr.Run(context.Background(), sim, pop, db, start)
	if err != nil {
		t.Fatal(err)
	}
	if h.CollectedFraction < 0.9 {
		t.Fatalf("collected fraction = %.2f, want >= 0.9 (paper collected ~the full ring)", h.CollectedFraction)
	}
	// Every collected address must belong to a descriptor-publishing
	// service.
	for addr := range h.Addresses {
		svc, ok := pop.ByAddress(addr)
		if !ok {
			t.Fatalf("harvested unknown address %s", addr)
		}
		if !svc.DescriptorAtScan {
			t.Fatalf("harvested address %s of non-publishing service", addr)
		}
		if h.PermIDs[addr] != svc.PermID {
			t.Fatal("harvest PermID mismatch")
		}
	}
}

func TestTrawlStepCoverageReflectsFleet(t *testing.T) {
	tr, sim, pop, db, start := setupTrawl(t, 3, 4, false)
	h, err := tr.Run(context.Background(), sim, pop, db, start)
	if err != nil {
		t.Fatal(err)
	}
	if len(h.StepCoverage) != 4 {
		t.Fatalf("coverage entries = %d, want 4", len(h.StepCoverage))
	}
	for i, c := range h.StepCoverage {
		if c <= 0 || c >= 1 {
			t.Fatalf("step %d coverage = %v, want in (0,1)", i, c)
		}
	}
}

func TestTrawlGathersRequestLog(t *testing.T) {
	tr, sim, pop, db, start := setupTrawl(t, 4, 3, true)
	h, err := tr.Run(context.Background(), sim, pop, db, start)
	if err != nil {
		t.Fatal(err)
	}
	if h.Log.Total() == 0 {
		t.Fatal("no client requests logged")
	}
	if h.Log.UniqueIDs() == 0 {
		t.Fatal("no unique descriptor IDs logged")
	}
}

func TestTrawlPublishedVersusRequestedStatistic(t *testing.T) {
	tr, sim, pop, db, start := setupTrawl(t, 11, 4, true)
	h, err := tr.Run(context.Background(), sim, pop, db, start)
	if err != nil {
		t.Fatal(err)
	}
	if h.PublishedIDsSeen == 0 {
		t.Fatal("no published descriptor IDs recorded")
	}
	if h.RequestedPublishedIDs == 0 {
		t.Fatal("no requested published IDs recorded")
	}
	frac := h.RequestedPublishedFraction()
	// The paper observed ~10% of published descriptors ever requested;
	// the popularity tail is configured to reproduce that order.
	if frac <= 0 || frac > 0.5 {
		t.Fatalf("requested/published fraction = %.2f, want small (~0.1)", frac)
	}
}

func TestTrawlCoverageScalesWithFleetSize(t *testing.T) {
	trSmall, simSmall, popSmall, dbSmall, startSmall := setupTrawl(t, 12, 2, false)
	small, err := trSmall.Run(context.Background(), simSmall, popSmall, dbSmall, startSmall)
	if err != nil {
		t.Fatal(err)
	}

	// A one-IP fleet with a single step collects far less.
	fleet := relaynet.DefaultFleetConfig(12)
	fleet.Days = 1
	fleet.InitialRelays = 300
	fleet.FinalRelays = 300
	sim, err := relaynet.NewSim(fleet)
	if err != nil {
		t.Fatal(err)
	}
	cfg := DefaultConfig(12)
	cfg.IPs = 1
	cfg.Steps = 1
	cfg.DriveTraffic = false
	tiny, err := NewTrawler(cfg)
	if err != nil {
		t.Fatal(err)
	}
	popCfg := hspop.TestConfig(12)
	popCfg.Scale = 0.02
	pop, err := hspop.Generate(context.Background(), popCfg)
	if err != nil {
		t.Fatal(err)
	}
	db, err := geo.NewDB(geo.DefaultBotnetMix())
	if err != nil {
		t.Fatal(err)
	}
	start := fleet.Start.Add(48 * time.Hour)
	tiny.Deploy(sim, start)
	tinyH, err := tiny.Run(context.Background(), sim, pop, db, start)
	if err != nil {
		t.Fatal(err)
	}
	if tinyH.CollectedFraction >= small.CollectedFraction {
		t.Fatalf("1-IP fleet collected %.2f, multi-IP fleet %.2f",
			tinyH.CollectedFraction, small.CollectedFraction)
	}
}

func TestRotationActivatesFreshPairs(t *testing.T) {
	tr, _, _, _, _ := setupTrawl(t, 5, 3, false)
	s0 := activeFingerprints(tr, 0)
	s1 := activeFingerprints(tr, 1)
	if len(s0) == 0 || len(s1) == 0 {
		t.Fatal("no active fingerprints")
	}
	seen := map[string]bool{}
	for _, f := range s0 {
		seen[f.Hex()] = true
	}
	for _, f := range s1 {
		if seen[f.Hex()] {
			t.Fatal("step 1 reuses step-0 fingerprints")
		}
	}
	for _, f := range s0 {
		if !tr.allFPs[f] {
			t.Fatal("fleet fingerprint not owned")
		}
	}
}

// activeFingerprints returns the fingerprints of the pair active in the
// given step across all IPs.
func activeFingerprints(tr *Trawler, step int) []onion.Fingerprint {
	out := make([]onion.Fingerprint, 0, 2*len(tr.fleet))
	for _, relays := range tr.fleet {
		for i := 2 * step; i < 2*step+2 && i < len(relays); i++ {
			out = append(out, relays[i].Fingerprint())
		}
	}
	return out
}
