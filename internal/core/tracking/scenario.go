package tracking

import (
	"fmt"
	"time"

	"torhs/internal/consensus"
	"torhs/internal/onion"
	"torhs/internal/relay"
	"torhs/internal/relaynet"
)

// ScenarioConfig builds a consensus history around a target hidden
// service ("Silk Road") with planted tracking episodes mirroring the
// three the paper found:
//
//   - the authors' own measurement servers, switching fingerprints into
//     position on a few scattered occasions (ratio ≳ 100);
//   - a named set of relays ("they share the same name") holding one of
//     the six responsible slots continuously over a multi-week band, the
//     only relays crossing ratio 10,000;
//   - a six-relay, three-IP fleet taking over ALL six responsible slots
//     for a single day.
type ScenarioConfig struct {
	// Seed drives the honest network and tracker randomness.
	Seed int64
	// Days is the total history length.
	Days int
	// InitialRelays / FinalRelays bound network growth (757 → 1,862
	// HSDirs across the paper's window).
	InitialRelays int
	FinalRelays   int

	// OwnProbeDays are the days on which the "our own servers" episode
	// mines into position (responsibility lands two days later).
	OwnProbeDays []int
	// BandStart / BandEnd bound the continuous-tracking episode
	// (inclusive start, exclusive end; responsibility observed within
	// the band).
	BandStart, BandEnd int
	// TakeoverDay is the full six-slot takeover day.
	TakeoverDay int
}

// DefaultScenarioConfig returns a scaled-down version of the paper's
// three-year window: the same three episodes over cfg.Days days.
func DefaultScenarioConfig(seed int64) ScenarioConfig {
	return ScenarioConfig{
		Seed:          seed,
		Days:          120,
		InitialRelays: 300,
		FinalRelays:   450,
		OwnProbeDays:  []int{20, 32, 44},
		BandStart:     60,
		BandEnd:       74,
		TakeoverDay:   100,
	}
}

// Scenario is the built history plus ground truth for evaluation.
type Scenario struct {
	History *consensus.History
	// Target is the tracked service's permanent ID ("Silk Road").
	Target onion.PermanentID
	// TargetAddress is its onion address.
	TargetAddress onion.Address
	// OwnRelayIDs / BandRelayIDs / TakeoverRelayIDs identify the planted
	// trackers.
	OwnRelayIDs      []relay.ID
	BandRelayIDs     []relay.ID
	TakeoverRelayIDs []relay.ID
	// Start is day 0's consensus instant.
	Start time.Time
	// End closes the analysis window [Start, End]: Start plus Days
	// days, one day past the last consensus, so the window holds every
	// document of the history.
	End time.Time
}

// minedLead is how many days before its responsibility a tracker mines
// its fingerprint: it must exceed the 25 h HSDir uptime threshold.
const minedLead = 2

// BuildScenario runs the relay network for cfg.Days days and plants the
// three tracking episodes, materializing the full consensus history.
func BuildScenario(cfg ScenarioConfig) (*Scenario, error) {
	sc, sim, hook, err := newScenarioRun(cfg)
	if err != nil {
		return nil, err
	}
	h, err := sim.Run(hook)
	if err != nil {
		return nil, fmt.Errorf("tracking: %w", err)
	}
	sc.History = h
	return sc, nil
}

// newScenarioRun validates cfg, builds the simulation with the planted
// tracker fleets registered, and returns the scenario ground truth
// (History nil) plus the ready-to-run sim and day hook. Everything is
// derived from cfg.Seed, so two calls with the same cfg produce sims
// whose stepped document sequences are byte-identical — the property the
// streaming source's rewind-by-rebuild relies on.
func newScenarioRun(cfg ScenarioConfig) (*Scenario, *relaynet.Sim, relaynet.DayHook, error) {
	if cfg.Days < cfg.TakeoverDay+1 || cfg.Days < cfg.BandEnd {
		return nil, nil, nil, fmt.Errorf("tracking: scenario days %d too short for episodes", cfg.Days)
	}
	if cfg.BandStart <= 0 || cfg.BandEnd <= cfg.BandStart {
		return nil, nil, nil, fmt.Errorf("tracking: band [%d,%d) invalid", cfg.BandStart, cfg.BandEnd)
	}

	fleet := relaynet.FleetConfig{
		Seed:          cfg.Seed,
		Start:         time.Date(2013, 1, 1, 0, 0, 0, 0, time.UTC),
		Days:          cfg.Days,
		InitialRelays: cfg.InitialRelays,
		FinalRelays:   cfg.FinalRelays,
		DailyChurn:    0.01,
		Thresholds:    consensus.DefaultThresholds(),
	}
	sim, err := relaynet.NewSim(fleet)
	if err != nil {
		return nil, nil, nil, fmt.Errorf("tracking: %w", err)
	}
	rng := sim.RNG()

	targetKey := onion.GenerateKey(rng)
	sc := &Scenario{
		Target:        targetKey.PermanentID(),
		TargetAddress: onion.AddressFromKey(targetKey),
		Start:         fleet.Start,
		End:           fleet.Start.Add(time.Duration(cfg.Days) * 24 * time.Hour),
	}

	dayTime := func(day int) time.Time {
		return fleet.Start.Add(time.Duration(day) * 24 * time.Hour)
	}
	// The attacker's ring-size estimate; precision is irrelevant, only
	// the order of magnitude of the resulting ratio matters.
	estimatedHSDirs := uint64((cfg.InitialRelays + cfg.FinalRelays) / 2)

	// mineNear returns a mined fingerprint just after the target's
	// replica-r descriptor ID on the given day.
	mineNear := func(day int, rep uint8, targetRatio float64, slot uint64) onion.Fingerprint {
		descID := onion.ComputeDescriptorID(sc.Target, dayTime(day), rep)
		return MineFingerprint(descID, estimatedHSDirs, targetRatio, slot)
	}

	newTracker := func(nick, ip string, startDay int) *relay.Relay {
		r := relay.New(relay.Config{
			ID:        sim.NewRelayID(),
			Nickname:  nick,
			IP:        ip,
			ORPort:    9001,
			Bandwidth: 600,
		}, rng)
		r.Start(dayTime(startDay).Add(-30 * time.Hour))
		sim.AddAttackerRelay(r)
		return r
	}

	// Episode 1: "our own servers" — two relays, occasional probes.
	own := []*relay.Relay{
		newTracker("uniluprobe1", "158.64.1.10", 0),
		newTracker("uniluprobe2", "158.64.1.11", 0),
	}
	for _, r := range own {
		sc.OwnRelayIDs = append(sc.OwnRelayIDs, r.ID())
	}

	// Episode 2: the named band set — four relays sharing a nickname
	// stem, round-robin covering every day of the band.
	band := make([]*relay.Relay, 4)
	for i := range band {
		band[i] = newTracker(fmt.Sprintf("tracknet%02d", i),
			fmt.Sprintf("198.51.%d.7", 100+i), 0)
		sc.BandRelayIDs = append(sc.BandRelayIDs, band[i].ID())
	}

	// Episode 3: full takeover — six relays on three IPs (the consensus
	// admits two per IP).
	takeover := make([]*relay.Relay, 6)
	for i := range takeover {
		takeover[i] = newTracker(fmt.Sprintf("snatch-unit%d", i),
			fmt.Sprintf("192.0.2.%d", 10+i/2), 0)
		sc.TakeoverRelayIDs = append(sc.TakeoverRelayIDs, takeover[i].ID())
	}

	hook := func(day int, now time.Time) {
		// Own-probe episode: mine on the listed days; responsibility
		// lands minedLead days later with ratio ≈ 300.
		for i, probeDay := range cfg.OwnProbeDays {
			if day == probeDay {
				own[i%len(own)].AdoptMinedFingerprint(
					mineNear(day+minedLead, 0, 300, 1), now)
			}
		}

		// Band episode: tracker (d mod 4) re-mines for day d+minedLead
		// whenever that day falls inside the band. Ratio ≈ 50,000 —
		// these are the only relays crossing 10k, as in the paper.
		targetDay := day + minedLead
		if targetDay >= cfg.BandStart && targetDay < cfg.BandEnd {
			band[targetDay%len(band)].AdoptMinedFingerprint(
				mineNear(targetDay, uint8(targetDay%2), 50000, 1), now)
		}

		// Takeover episode: two days ahead, all six relays mine onto
		// the three slots following each replica's descriptor ID.
		if day == cfg.TakeoverDay-minedLead {
			for i, r := range takeover {
				rep := uint8(i / 3)
				slot := uint64(i%3 + 1)
				r.AdoptMinedFingerprint(
					mineNear(cfg.TakeoverDay, rep, 20000, slot), now)
			}
		}
	}

	return sc, sim, hook, nil
}

// DefaultWindowRing is the sliding-ring capacity a streaming tracking
// analysis uses when the caller does not choose one. The sweep is a pure
// left fold, so a single live document would suffice; a few slots absorb
// the (rare) short backward re-reads without a rebuild.
const DefaultWindowRing = 4

// ScenarioSource is a streaming DocSource over the planted-tracker
// scenario: consensus documents are derived one day at a time from
// cfg.Seed through relaynet.Sim.StepDay and held in a sliding ring of at
// most ring live documents. Memory stays flat in cfg.Days — the
// full History is never materialized. Reading backward past the ring
// rebuilds the simulation from seed and replays forward (documents are
// re-derived, not stored).
//
// The document sequence is byte-identical to BuildScenario's archived
// history for the same cfg. Not safe for concurrent use.
type ScenarioSource struct {
	cfg  ScenarioConfig
	ring int
	sim  *relaynet.Sim
	hook relaynet.DayHook
	// buf is the bounded sliding ring itself: buf[j] is document
	// base+j, len(buf) <= ring.
	//
	//torhs:retained the sliding window ring; holds at most ring live documents by construction
	buf  []*consensus.Document
	base int
}

// NewScenarioSource builds the scenario simulation without running it
// and returns the ground truth (History nil — the streamed documents are
// never archived) plus the streaming source. ring <= 0 selects
// DefaultWindowRing.
func NewScenarioSource(cfg ScenarioConfig, ring int) (*Scenario, *ScenarioSource, error) {
	if ring <= 0 {
		ring = DefaultWindowRing
	}
	sc, sim, hook, err := newScenarioRun(cfg)
	if err != nil {
		return nil, nil, err
	}
	return sc, &ScenarioSource{cfg: cfg, ring: ring, sim: sim, hook: hook}, nil
}

// Len returns the number of documents in the window (one per day).
func (s *ScenarioSource) Len() int { return s.cfg.Days }

// Ring returns the ring capacity (the live-document bound K).
func (s *ScenarioSource) Ring() int { return s.ring }

// rebuild re-derives the simulation from seed and empties the ring.
func (s *ScenarioSource) rebuild() error {
	_, sim, hook, err := newScenarioRun(s.cfg)
	if err != nil {
		return err
	}
	s.sim, s.hook = sim, hook
	s.buf = s.buf[:0]
	s.base = 0
	return nil
}

// At returns document i, stepping the simulation forward as needed and
// recycling the oldest ring slot once the ring is full. Asking for a
// document older than the ring replays from seed.
func (s *ScenarioSource) At(i int) (*consensus.Document, error) {
	if i < 0 || i >= s.cfg.Days {
		return nil, fmt.Errorf("tracking: scenario source day %d out of [0,%d)", i, s.cfg.Days)
	}
	if s.sim == nil || i < s.base {
		if err := s.rebuild(); err != nil {
			return nil, err
		}
	}
	for s.base+len(s.buf) <= i {
		doc, err := s.sim.StepDay(s.hook)
		if err != nil {
			return nil, err
		}
		if len(s.buf) < s.ring {
			s.buf = append(s.buf, doc)
		} else {
			copy(s.buf, s.buf[1:])
			s.buf[len(s.buf)-1] = doc
			s.base++
		}
	}
	return s.buf[i-s.base], nil
}
