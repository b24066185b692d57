// Package deanon implements the paper's Section VI: opportunistic
// deanonymisation of hidden-service *clients*. The attacker controls the
// target service's responsible directories (trivial, since responsible
// directories are predictable and positions can be mined) plus some
// fraction of the guard population; descriptor responses are wrapped in a
// traffic signature that attacker guards recognise, revealing client IPs.
// The output is the per-country client map of Fig. 3.
package deanon

import (
	"context"
	"fmt"
	"math/rand"
	"sort"
	"time"

	"torhs/internal/hsdir"
	"torhs/internal/hspop"
	"torhs/internal/onion"
	"torhs/internal/simnet"
	"torhs/internal/stats"
)

// Config parameterises a deanonymisation campaign.
type Config struct {
	// GuardControlFraction is the share of the guard pool the attacker
	// operates.
	GuardControlFraction float64
	// Window is the observation duration.
	Window time.Duration
	// Seed selects which guards the attacker controls.
	Seed int64
}

// DefaultConfig returns a campaign with a realistic minority guard share.
func DefaultConfig(seed int64) Config {
	return Config{GuardControlFraction: 0.1, Window: 2 * time.Hour, Seed: seed}
}

// Report summarises a campaign.
type Report struct {
	// Target is the attacked service.
	Target onion.Address
	// AttackerDirs / AttackerGuards are the controlled fingerprints.
	AttackerDirs   []onion.Fingerprint
	AttackerGuards int
	// SignaturesSent counts signature-wrapped responses.
	SignaturesSent int
	// Detections are the deanonymised observations.
	Detections []simnet.Detection
	// UniqueClients is the number of distinct clients identified.
	UniqueClients int
	// CountryHistogram aggregates detections per country (Fig. 3).
	CountryHistogram map[string]int
	// DetectionRate is detections over signatures sent; its expectation
	// is the attacker's guard-pool share.
	DetectionRate float64
}

// AttackerDirs returns the directories the attacker occupies against
// target from instant start on, sorted: the target's responsible
// directories for the current and, against clock-skewed clients, the
// adjacent time periods.
func AttackerDirs(ring *hsdir.Ring, target *hspop.Service, start time.Time) []onion.Fingerprint {
	dirSet := make(map[onion.Fingerprint]bool)
	for _, off := range []time.Duration{-24 * time.Hour, 0, 24 * time.Hour} {
		for _, fp := range ring.ResponsibleForServiceAt(target.PermID, start.Add(off)) {
			dirSet[fp] = true
		}
	}
	dirs := make([]onion.Fingerprint, 0, len(dirSet))
	for fp := range dirSet {
		dirs = append(dirs, fp)
	}
	sort.Slice(dirs, func(i, j int) bool { return dirs[i].Less(dirs[j]) })
	return dirs
}

// Run executes the campaign on an already-published network, driving one
// measurement window of traffic. The attacker reads only its own
// directories' fetch events, so the network may be restricted
// (simnet.Config.Observed) to AttackerDirs(ring, target, start), or to
// any superset of them: the report is the one an unrestricted network
// yields, and the window simulates only the requests those directories
// can answer. Cancellation propagates into the window drive; a cancelled
// campaign abandons the whole window (no partial report) and returns
// ctx.Err().
func Run(
	ctx context.Context,
	net *simnet.Network,
	pop *hspop.Population,
	target *hspop.Service,
	start time.Time,
	cfg Config,
) (*Report, error) {
	if cfg.GuardControlFraction <= 0 || cfg.GuardControlFraction > 1 {
		return nil, fmt.Errorf("deanon: guard fraction %v out of (0,1]", cfg.GuardControlFraction)
	}
	if cfg.Window <= 0 {
		return nil, fmt.Errorf("deanon: window %v must be positive", cfg.Window)
	}

	dirs := AttackerDirs(net.Ring(), target, start)
	if net.Restricted() {
		for _, fp := range dirs {
			if _, ok := net.Directory(fp); !ok {
				return nil, fmt.Errorf("deanon: the network does not observe attacker directory %s", fp.Hex())
			}
		}
	}

	// Attacker guards: a random but deterministic subset of the pool.
	pool := append([]onion.Fingerprint(nil), net.GuardPool()...)
	rng := rand.New(rand.NewSource(cfg.Seed))
	rng.Shuffle(len(pool), func(i, j int) { pool[i], pool[j] = pool[j], pool[i] })
	nGuards := int(float64(len(pool)) * cfg.GuardControlFraction)
	if nGuards < 1 {
		nGuards = 1
	}
	attackerGuards := pool[:nGuards]

	attack := simnet.NewSignatureAttack(target.PermID, dirs, attackerGuards)
	if _, err := net.DriveWindow(ctx, pop, start, cfg.Window, attack.Observe); err != nil {
		return nil, err
	}

	rep := &Report{
		Target:           target.Address,
		AttackerDirs:     dirs,
		AttackerGuards:   nGuards,
		SignaturesSent:   attack.SignaturesSent(),
		Detections:       attack.Detections(),
		UniqueClients:    attack.UniqueClients(),
		CountryHistogram: attack.CountryHistogram(),
	}
	if rep.SignaturesSent > 0 {
		rep.DetectionRate = float64(len(rep.Detections)) / float64(rep.SignaturesSent)
	}
	return rep, nil
}

// MapPoints renders the country histogram as ranked rows — the tabular
// form of the Fig. 3 world map.
func (r *Report) MapPoints() []stats.RankedCount {
	return stats.RankCounts(r.CountryHistogram)
}
