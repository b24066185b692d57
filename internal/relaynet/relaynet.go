// Package relaynet builds and drives relay fleets: honest relay
// populations with realistic bandwidth/uptime mixes, daily consensus
// publication into a history archive, churn, and network growth. It is
// the scenario engine behind both the trawling experiments (which need a
// single rich consensus) and the Section VII tracking detection (which
// needs years of history with planted trackers).
package relaynet

import (
	"fmt"
	"math/rand"
	"slices"
	"time"

	"torhs/internal/consensus"
	"torhs/internal/relay"
)

// FleetConfig describes a simulated relay network run.
type FleetConfig struct {
	// Seed drives all randomness.
	Seed int64
	// Start is the instant of the first published consensus.
	Start time.Time
	// Days is how many daily consensuses to publish.
	Days int
	// InitialRelays and FinalRelays bound linear network growth (the
	// paper's HSDir count grew 757 → 1,862 over the Silk Road period).
	InitialRelays int
	FinalRelays   int
	// DailyChurn is the fraction of relays replaced each day (stop one,
	// start a fresh one).
	DailyChurn float64
	// Thresholds are the flag-assignment parameters.
	Thresholds consensus.Thresholds
}

// DefaultFleetConfig returns a small but realistic network for tests.
func DefaultFleetConfig(seed int64) FleetConfig {
	return FleetConfig{
		Seed:          seed,
		Start:         time.Date(2013, 2, 1, 0, 0, 0, 0, time.UTC),
		Days:          10,
		InitialRelays: 400,
		FinalRelays:   450,
		DailyChurn:    0.01,
		Thresholds:    consensus.DefaultThresholds(),
	}
}

// Sim is a running relay-network simulation.
type Sim struct {
	cfg  FleetConfig
	rng  *rand.Rand
	auth *consensus.Authority
	// relays holds the running honest relays in ascending creation
	// order. A stopped relay leaves it, and the authority forgets it at
	// its next Publish: nothing restarts a stopped relay, so a day costs
	// the live relays, not every relay ever started.
	relays  []*relay.Relay
	history *consensus.History
	nextID  relay.ID
	// day is the next day StepDay will simulate (the day cursor the
	// streaming consumers advance one window at a time).
	day int
}

// NewSim constructs the simulation and bootstraps the initial fleet with
// staggered start times (so the first consensus already contains Guard-
// and HSDir-flagged relays, as the real network always does).
func NewSim(cfg FleetConfig) (*Sim, error) {
	if cfg.Days <= 0 {
		return nil, fmt.Errorf("relaynet: days %d must be positive", cfg.Days)
	}
	if cfg.InitialRelays <= 0 || cfg.FinalRelays < cfg.InitialRelays {
		return nil, fmt.Errorf("relaynet: relay bounds %d..%d invalid",
			cfg.InitialRelays, cfg.FinalRelays)
	}
	if cfg.DailyChurn < 0 || cfg.DailyChurn > 1 {
		return nil, fmt.Errorf("relaynet: churn %v out of [0,1]", cfg.DailyChurn)
	}
	s := &Sim{
		cfg:     cfg,
		rng:     rand.New(rand.NewSource(cfg.Seed)),
		auth:    consensus.NewAuthority(cfg.Thresholds),
		history: consensus.NewHistory(),
	}
	for i := 0; i < cfg.InitialRelays; i++ {
		// Stagger initial uptimes from 2 hours to ~100 days so the flag
		// mix is realistic from day one.
		age := time.Duration(2+s.rng.Intn(100*24)) * time.Hour
		s.addRelay(cfg.Start.Add(-age))
	}
	return s, nil
}

// addRelay creates, starts, and registers a fresh honest relay.
func (s *Sim) addRelay(startAt time.Time) *relay.Relay {
	id := s.nextID
	s.nextID++
	r := relay.New(relay.Config{
		ID:        id,
		Nickname:  fmt.Sprintf("relay%05d", id),
		IP:        s.randomIP(),
		ORPort:    9001,
		Bandwidth: s.randomBandwidth(),
	}, s.rng)
	r.Start(startAt)
	s.relays = append(s.relays, r)
	s.auth.Register(r)
	return r
}

func (s *Sim) randomIP() string {
	return fmt.Sprintf("%d.%d.%d.%d",
		20+s.rng.Intn(200), s.rng.Intn(256), s.rng.Intn(256), 1+s.rng.Intn(254))
}

// randomBandwidth draws a heavy-tailed bandwidth (KB/s): many slow
// relays, a few fast ones.
func (s *Sim) randomBandwidth() int {
	base := 50 + s.rng.Intn(300)
	if s.rng.Float64() < 0.2 {
		base += s.rng.Intn(5000)
	}
	return base
}

// AddAttackerRelay registers an externally constructed relay (tracker,
// trawler instance) with the authority.
func (s *Sim) AddAttackerRelay(r *relay.Relay) { s.auth.Register(r) }

// NewRelayID hands out a fresh unique relay ID for attacker fleets.
func (s *Sim) NewRelayID() relay.ID {
	id := s.nextID
	s.nextID++
	return id
}

// Authority exposes the directory authority.
func (s *Sim) Authority() *consensus.Authority { return s.auth }

// RNG exposes the simulation's random source for scenario scripts.
func (s *Sim) RNG() *rand.Rand { return s.rng }

// DayHook runs before each day's consensus is published. now is the
// consensus ValidAfter instant for that day.
type DayHook func(day int, now time.Time)

// StepDay advances the simulation by exactly one day — growth toward
// FinalRelays, churn, the day hook — and returns that day's published
// consensus without archiving it. This is the streaming window source:
// callers that fold documents online (the tracking sweep's sliding ring)
// step the simulation one consensus at a time and let each document go
// out of scope after its fold, instead of materializing the full history.
// Run is implemented on top of StepDay, so for a fixed seed the stepped
// document sequence is byte-identical to the archived one. Returns an
// error once all cfg.Days days have been stepped.
func (s *Sim) StepDay(hook DayHook) (*consensus.Document, error) {
	cfg := s.cfg
	if s.day >= cfg.Days {
		return nil, fmt.Errorf("relaynet: all %d days already stepped", cfg.Days)
	}
	day := s.day
	now := cfg.Start.Add(time.Duration(day) * 24 * time.Hour)

	// Linear growth toward FinalRelays.
	target := cfg.InitialRelays
	if cfg.Days > 1 {
		target += (cfg.FinalRelays - cfg.InitialRelays) * day / (cfg.Days - 1)
	}
	for len(s.relays) < target {
		s.addRelay(now.Add(-time.Duration(s.rng.Intn(48)) * time.Hour))
	}

	// Churn: replace a random fraction of live relays.
	nChurn := int(float64(len(s.relays)) * cfg.DailyChurn)
	for i := 0; i < nChurn; i++ {
		s.stopRandomLive()
		s.addRelay(now.Add(-time.Duration(s.rng.Intn(12)) * time.Hour))
	}

	if hook != nil {
		hook(day, now)
	}
	s.day++
	return s.auth.Publish(now), nil
}

// Run publishes one consensus per day for cfg.Days days, applying growth
// and churn, and invoking hook (if non-nil) before each publication.
// It returns the accumulated history.
func (s *Sim) Run(hook DayHook) (*consensus.History, error) {
	for s.day < s.cfg.Days {
		day := s.day
		doc, err := s.StepDay(hook)
		if err != nil {
			return nil, err
		}
		if err := s.history.Append(doc); err != nil {
			return nil, fmt.Errorf("relaynet: day %d: %w", day, err)
		}
	}
	return s.history, nil
}

// stopRandomLive stops a uniformly drawn running relay and drops it from
// the live list, which keeps its creation order.
func (s *Sim) stopRandomLive() {
	if len(s.relays) == 0 {
		return
	}
	i := s.rng.Intn(len(s.relays))
	s.relays[i].Stop()
	s.relays = slices.Delete(s.relays, i, i+1)
}
