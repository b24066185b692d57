package experiments

import (
	"context"
	"fmt"
	"sync"
	"sync/atomic"
	"time"

	"torhs/internal/consensus"
	"torhs/internal/core/trawl"
	"torhs/internal/darknet"
	"torhs/internal/geo"
	"torhs/internal/hspop"
	"torhs/internal/onion"
	"torhs/internal/relaynet"
	"torhs/internal/resultstore"
)

// memo is a lazily built, single-flight value: the first get builds it,
// every later get returns the same (value, error) pair. Safe for
// concurrent use; builds must be deterministic so that who triggers the
// build never matters.
type memo[T any] struct {
	once sync.Once
	done atomic.Bool
	v    T
	err  error
}

func (m *memo[T]) get(build func() (T, error)) (T, error) {
	m.once.Do(func() {
		m.v, m.err = build()
		m.done.Store(true)
	})
	return m.v, m.err
}

// peek reports the built value without triggering (or blocking on) a
// build: ok is false while the memo is unbuilt or mid-build.
func (m *memo[T]) peek() (v T, err error, ok bool) {
	if !m.done.Load() {
		return v, nil, false
	}
	return m.v, m.err, true
}

// Env is the shared substrate an experiment pipeline runs against: the
// configuration plus every expensive fixture the experiments share — the
// generated population, the reachability fabric, the geo database,
// honest relay networks keyed by seed offset, and the artefacts already
// produced this run. Everything is built lazily, memoized, and safe to
// reach from concurrently running experiments, so a pipeline pays for
// exactly the substrates its selected experiments touch, exactly once.
type Env struct {
	cfg Config

	pop    memo[*hspop.Population]
	fabric memo[*darknet.Fabric]
	geoDB  memo[*geo.DB]

	mu   sync.Mutex
	sims map[int64]*memo[*relaynet.Sim]
	//torhs:retained single-offset consensus memos shared by the deanon experiments; a fixed number of documents, not a time axis
	docs      map[int64]*memo[*consensus.Document]
	artefacts map[string]*memo[Artefact]
	secrets   map[[2]int64]*memo[*onion.SecretIDTable]

	// Checkpoint plane (see checkpoint.go). Armed by RunStudy when the
	// invocation asks for window-level snapshots; off by default so
	// direct Study calls and tests pay nothing.
	ckptMu     sync.Mutex
	ckptStore  *resultstore.Store
	ckptScen   string
	ckptEvery  int
	ckptResume bool
	ckptSets   map[string]*resultstore.CheckpointSet
}

// NewEnv validates the configuration and returns an empty environment.
// No substrate is built yet; experiments (or the accessors below) pull
// what they need on demand.
func NewEnv(cfg Config) (*Env, error) {
	if cfg.Scale <= 0 || cfg.Scale > 1 {
		return nil, fmt.Errorf("experiments: scale %v out of (0,1]", cfg.Scale)
	}
	if cfg.Clients <= 0 {
		return nil, fmt.Errorf("experiments: clients %d not positive", cfg.Clients)
	}
	if cfg.TrawlIPs <= 0 || cfg.TrawlSteps <= 0 {
		return nil, fmt.Errorf("experiments: trawl fleet %dx%d not positive", cfg.TrawlIPs, cfg.TrawlSteps)
	}
	if cfg.Relays <= 0 {
		return nil, fmt.Errorf("experiments: relays %d not positive", cfg.Relays)
	}
	if cfg.BotFactor < 0 {
		return nil, fmt.Errorf("experiments: bot factor %v negative", cfg.BotFactor)
	}
	if cfg.TrackingDays < 0 {
		return nil, fmt.Errorf("experiments: tracking days %d negative", cfg.TrackingDays)
	}
	if cfg.PopularityTopN < 0 {
		return nil, fmt.Errorf("experiments: popularity topN %d negative", cfg.PopularityTopN)
	}
	return &Env{
		cfg:       cfg,
		sims:      make(map[int64]*memo[*relaynet.Sim]),
		docs:      make(map[int64]*memo[*consensus.Document]),
		artefacts: make(map[string]*memo[Artefact]),
		secrets:   make(map[[2]int64]*memo[*onion.SecretIDTable]),
	}, nil
}

// Population returns the memoized synthetic hidden-service landscape.
// The first caller's ctx governs the build; a cancelled build latches
// ctx.Err() into the memo like any other build failure.
func (e *Env) Population(ctx context.Context) (*hspop.Population, error) {
	return e.pop.get(func() (*hspop.Population, error) {
		popCfg := hspop.PaperConfig(e.cfg.Seed)
		popCfg.Scale = e.cfg.Scale
		popCfg.Workers = e.cfg.Workers
		if e.cfg.BotFactor > 0 {
			popCfg.SkynetBots = int(float64(popCfg.SkynetBots) * e.cfg.BotFactor)
		}
		pop, err := hspop.Generate(ctx, popCfg)
		if err != nil {
			return nil, fmt.Errorf("experiments: %w", err)
		}
		return pop, nil
	})
}

// Fabric returns the memoized reachability fabric over the population.
func (e *Env) Fabric(ctx context.Context) (*darknet.Fabric, error) {
	return e.fabric.get(func() (*darknet.Fabric, error) {
		pop, err := e.Population(ctx)
		if err != nil {
			return nil, err
		}
		return darknet.New(pop), nil
	})
}

// GeoDB returns the memoized IP-geolocation database.
func (e *Env) GeoDB() (*geo.DB, error) {
	return e.geoDB.get(func() (*geo.DB, error) {
		db, err := geo.NewDB(geo.DefaultBotnetMix())
		if err != nil {
			return nil, fmt.Errorf("experiments: %w", err)
		}
		return db, nil
	})
}

// RelaySim returns the memoized one-day honest relay network seeded at
// Seed+offset, building its fleet on first use. Each offset yields an
// independent network, so experiments that mutate their sim — deploying
// a trawling fleet, running the fleet forward — must own a private
// offset and run at most once per Env; read-only consumers may share.
func (e *Env) RelaySim(offset int64) (*relaynet.Sim, error) {
	e.mu.Lock()
	m, ok := e.sims[offset]
	if !ok {
		m = &memo[*relaynet.Sim]{}
		e.sims[offset] = m
	}
	e.mu.Unlock()
	return m.get(func() (*relaynet.Sim, error) {
		fleet := relaynet.DefaultFleetConfig(e.cfg.Seed + offset)
		fleet.Days = 1
		fleet.InitialRelays = e.cfg.Relays
		fleet.FinalRelays = e.cfg.Relays
		return relaynet.NewSim(fleet)
	})
}

// Consensus returns the memoized first consensus of the relay network at
// the given seed offset, running the fleet forward on first use. The
// document is immutable after publication, so any number of experiments
// can share one offset here — but not with a RelaySim mutator.
func (e *Env) Consensus(offset int64) (*consensus.Document, error) {
	e.mu.Lock()
	m, ok := e.docs[offset]
	if !ok {
		m = &memo[*consensus.Document]{}
		e.docs[offset] = m
	}
	e.mu.Unlock()
	return m.get(func() (*consensus.Document, error) {
		sim, err := e.RelaySim(offset)
		if err != nil {
			return nil, err
		}
		h, err := sim.Run(nil)
		if err != nil {
			return nil, err
		}
		return h.All()[0], nil
	})
}

// SecretTable returns the memoized rend-spec secret-id-part table for
// the window [from, to]. Tables are pure functions of the window (no
// inputs beyond the calendar), immutable once built, and never
// invalidated within a run; any number of experiments may share one. The
// simnet networks, the trawling fleet, popularity resolution, and the
// tracking analyzer all draw from here instead of recomputing the same
// SHA-1 secret parts per consumer.
func (e *Env) SecretTable(from, to time.Time) *onion.SecretIDTable {
	key := [2]int64{from.Unix(), to.Unix()}
	e.mu.Lock()
	m, ok := e.secrets[key]
	if !ok {
		m = &memo[*onion.SecretIDTable]{}
		e.secrets[key] = m
	}
	e.mu.Unlock()
	t, _ := m.get(func() (*onion.SecretIDTable, error) {
		return onion.NewSecretIDTable(from, to), nil
	})
	return t
}

const (
	// trawlLead is how long after the fleet start both trawls begin.
	trawlLead = 48 * time.Hour
	// popularityWindow is the half-width of the popularity resolution
	// window around the trawl start (the paper resolved 28 Jan – 8 Feb).
	popularityWindow = 7 * 24 * time.Hour
	// deanonReach is how far before the fleet start the client
	// deanonymisation drives traffic (deanon.Run's windows lie a day
	// either side of its consensus).
	deanonReach = 24 * time.Hour
)

// studySecretTable returns the shared table covering every instant whose
// descriptor IDs the traffic experiments derive, sized from the
// scenario's own axis: the trawls' span widened by the maximum client
// clock skew, the popularity resolution window, and the deanonymisation
// windows widened by the skew (they end before the trawls do). The table
// is a pure cache, so its window changes no output, only how often a
// derivation falls back to computing its secret part.
func (e *Env) studySecretTable() *onion.SecretIDTable {
	base := relaynet.DefaultFleetConfig(e.cfg.Seed).Start
	start := base.Add(trawlLead)
	tc := trawl.DefaultConfig(e.cfg.Seed)
	end := start.Add(time.Duration(e.cfg.TrawlSteps) * tc.StepLen)
	skew := tc.ClientConfig.MaxSkew // every traffic network's client config
	from := start.Add(-popularityWindow)
	if d := base.Add(-deanonReach - skew); d.Before(from) {
		from = d
	}
	to := start.Add(popularityWindow)
	if t := end.Add(skew); t.After(to) {
		to = t
	}
	return e.SecretTable(from, to)
}

// Dep returns the artefact a dependency produced earlier in this run.
// The scheduler guarantees every experiment named in Needs has finished
// before Run is invoked; asking for anything else is a wiring bug and
// yields an error — without disturbing the memo, so the experiment can
// still run later.
func (e *Env) Dep(name string) (Artefact, error) {
	a, err, ok := e.artefactMemo(name).peek()
	if !ok {
		return nil, fmt.Errorf("experiments: dependency %q has not run (declare it in the experiment's Needs)", name)
	}
	return a, err
}

func (e *Env) artefactMemo(name string) *memo[Artefact] {
	e.mu.Lock()
	defer e.mu.Unlock()
	m, ok := e.artefacts[name]
	if !ok {
		m = &memo[Artefact]{}
		e.artefacts[name] = m
	}
	return m
}

// addresses returns every onion address in the population (the trawled
// collection).
func (e *Env) addresses(ctx context.Context) ([]onion.Address, error) {
	pop, err := e.Population(ctx)
	if err != nil {
		return nil, err
	}
	out := make([]onion.Address, 0, pop.Len())
	for _, svc := range pop.Services {
		out = append(out, svc.Address)
	}
	return out, nil
}
