package deanon

import (
	"context"
	"fmt"
	"math"
	"reflect"
	"testing"
	"time"

	"torhs/internal/consensus"
	"torhs/internal/geo"
	"torhs/internal/hspop"
	"torhs/internal/onion"
	"torhs/internal/relaynet"
	"torhs/internal/simnet"
)

// fixture is one consensus, geo database and population: the substrate
// of networks that make the same draws.
type fixture struct {
	doc *consensus.Document
	db  *geo.DB
	pop *hspop.Population
	now time.Time
}

func newFixture(t *testing.T, seed int64) fixture {
	t.Helper()
	fleet := relaynet.DefaultFleetConfig(seed)
	fleet.Days = 1
	sim, err := relaynet.NewSim(fleet)
	if err != nil {
		t.Fatal(err)
	}
	h, err := sim.Run(nil)
	if err != nil {
		t.Fatal(err)
	}
	db, err := geo.NewDB(geo.DefaultBotnetMix())
	if err != nil {
		t.Fatal(err)
	}
	pop, err := hspop.Generate(context.Background(), hspop.TestConfig(seed))
	if err != nil {
		t.Fatal(err)
	}
	return fixture{doc: h.All()[0], db: db, pop: pop, now: h.All()[0].ValidAfter}
}

// network builds an 800-client network over the fixture, restricted to
// observed unless that is nil, and publishes the population on it.
func (f fixture) network(t *testing.T, seed int64, observed []onion.Fingerprint) *simnet.Network {
	t.Helper()
	cfg := simnet.DefaultConfig(seed)
	cfg.Clients = 800
	cfg.Observed = observed
	net, err := simnet.NewNetwork(f.doc, f.db, cfg)
	if err != nil {
		t.Fatal(err)
	}
	net.PublishAll(f.pop, f.now)
	return net
}

func setup(t *testing.T, seed int64) (*simnet.Network, *hspop.Population, time.Time) {
	t.Helper()
	f := newFixture(t, seed)
	return f.network(t, seed, nil), f.pop, f.now
}

func TestRunValidation(t *testing.T) {
	net, pop, now := setup(t, 1)
	cfg := DefaultConfig(1)
	cfg.GuardControlFraction = 0
	if _, err := Run(context.Background(), net, pop, pop.Services[0], now, cfg); err == nil {
		t.Fatal("zero guard fraction accepted")
	}
	cfg = DefaultConfig(1)
	cfg.Window = 0
	if _, err := Run(context.Background(), net, pop, pop.Services[0], now, cfg); err == nil {
		t.Fatal("zero window accepted")
	}
}

func TestCampaignAgainstGoldnet(t *testing.T) {
	net, pop, now := setup(t, 2)
	target := pop.Services[0] // top Goldnet front

	cfg := DefaultConfig(2)
	cfg.GuardControlFraction = 0.25
	rep, err := Run(context.Background(), net, pop, target, now, cfg)
	if err != nil {
		t.Fatal(err)
	}
	if rep.SignaturesSent == 0 {
		t.Fatal("no signatures sent against the most popular service")
	}
	if len(rep.Detections) == 0 {
		t.Fatal("no clients deanonymised with 25% guard control")
	}
	if rep.UniqueClients == 0 || rep.UniqueClients > len(rep.Detections) {
		t.Fatalf("unique clients = %d of %d detections", rep.UniqueClients, len(rep.Detections))
	}
	// Detection rate should approximate the guard-control share.
	if math.Abs(rep.DetectionRate-0.25) > 0.12 {
		t.Fatalf("detection rate = %.3f, want ~0.25", rep.DetectionRate)
	}
	// Country histogram covers the detections.
	sum := 0
	for _, n := range rep.CountryHistogram {
		sum += n
	}
	if sum != len(rep.Detections) {
		t.Fatal("country histogram inconsistent")
	}
	// Fig. 3 data: multiple countries, ranked.
	points := rep.MapPoints()
	if len(points) < 3 {
		t.Fatalf("map covers %d countries, want a world-wide spread", len(points))
	}
	for i := 1; i < len(points); i++ {
		if points[i].Count > points[i-1].Count {
			t.Fatal("map points not ranked")
		}
	}
}

func TestDetectionRateScalesWithGuardControl(t *testing.T) {
	netLow, popLow, nowLow := setup(t, 3)
	low, err := Run(context.Background(), netLow, popLow, popLow.Services[0], nowLow, Config{
		GuardControlFraction: 0.05, Window: 2 * time.Hour, Seed: 3,
	})
	if err != nil {
		t.Fatal(err)
	}
	netHigh, popHigh, nowHigh := setup(t, 3)
	high, err := Run(context.Background(), netHigh, popHigh, popHigh.Services[0], nowHigh, Config{
		GuardControlFraction: 0.5, Window: 2 * time.Hour, Seed: 3,
	})
	if err != nil {
		t.Fatal(err)
	}
	if high.DetectionRate <= low.DetectionRate {
		t.Fatalf("detection rate did not scale: %.3f (5%%) vs %.3f (50%%)",
			low.DetectionRate, high.DetectionRate)
	}
}

// TestRestrictedCampaignMatchesUnrestricted runs one campaign on an
// unrestricted network and on a twin restricted to AttackerDirs: the
// reports must be identical, detections (client IPs included) and all.
// Every detection names its client's IP, which geolocates to its
// country. The fail=0 segment of each subtest name states that no
// directory fails.
func TestRestrictedCampaignMatchesUnrestricted(t *testing.T) {
	for _, seed := range []int64{2, 5} {
		t.Run(fmt.Sprintf("seed=%d/fail=0", seed), func(t *testing.T) {
			f := newFixture(t, seed)
			target := f.pop.Services[0]
			cfg := DefaultConfig(seed)
			cfg.GuardControlFraction = 0.25
			want, err := Run(context.Background(), f.network(t, seed, nil), f.pop, target, f.now, cfg)
			if err != nil {
				t.Fatal(err)
			}
			if len(want.Detections) == 0 {
				t.Fatal("no detections to compare")
			}
			for _, d := range want.Detections {
				if c, err := f.db.Lookup(d.IP); err != nil || c != d.Country {
					t.Fatalf("client %d detected at IP %q in %s: %v", d.ClientID, d.IP, d.Country, err)
				}
			}
			restricted := f.network(t, seed, AttackerDirs(f.doc.Ring(), target, f.now))
			got, err := Run(context.Background(), restricted, f.pop, target, f.now, cfg)
			if err != nil {
				t.Fatal(err)
			}
			if !reflect.DeepEqual(got, want) {
				t.Fatalf("restricted network's report differs:\n%+v\nunrestricted:\n%+v", got, want)
			}
		})
	}
}

// TestRestrictedNetworkRefusals: a campaign refuses a restricted network
// that does not observe every attacker directory.
func TestRestrictedNetworkRefusals(t *testing.T) {
	f := newFixture(t, 6)
	target := f.pop.Services[0]
	dirs := AttackerDirs(f.doc.Ring(), target, f.now)
	if _, err := Run(context.Background(), f.network(t, 6, dirs[1:]), f.pop, target, f.now, DefaultConfig(6)); err == nil {
		t.Fatal("a campaign ran on a network missing an attacker directory")
	}
}

func TestUnpopularTargetYieldsNothing(t *testing.T) {
	net, pop, now := setup(t, 4)
	var dark *hspop.Service
	for _, s := range pop.Services {
		if s.ExpectedRequests == 0 && s.DescriptorAtScan {
			dark = s
			break
		}
	}
	if dark == nil {
		t.Fatal("no dark service")
	}
	rep, err := Run(context.Background(), net, pop, dark, now, DefaultConfig(4))
	if err != nil {
		t.Fatal(err)
	}
	if rep.SignaturesSent != 0 || len(rep.Detections) != 0 {
		t.Fatalf("phantom detections: %+v", rep)
	}
}
