package simnet

import (
	"time"

	"torhs/internal/onion"
	"torhs/internal/parallel"
)

// guardRNG is what a guard draw reads: the network's *rand.Rand while
// warming or publishing, a request's *parallel.Stream (which draws what
// a parallel.NewRNG of its seed would) inside a fetch.
type guardRNG interface {
	Intn(n int) int
}

// guardPool is the set of Guard-flagged relays clients choose from,
// uniformly.
type guardPool struct {
	fps []onion.Fingerprint
}

func (p *guardPool) sample(rng guardRNG) onion.Fingerprint {
	return p.fps[rng.Intn(len(p.fps))]
}

// guardSet is the entry-guard state shared by clients and hidden-service
// hosts: three guards, each rotated after a uniform 30–60 day lifetime,
// one picked per circuit.
type guardSet struct {
	guards [3]onion.Fingerprint
	expiry [3]time.Time
}

// guardIndex is the range of a circuit's guard draw.
var guardIndex = parallel.IntnBound(len(guardSet{}.guards))

// stale reports whether guard i is (or will be by horizon) expired.
func (g *guardSet) stale(i int, horizon time.Time) bool {
	return g.expiry[i].IsZero() || horizon.After(g.expiry[i])
}

// refreshPoolUntil rotates every guard that is (or will be by horizon)
// expired. Refreshing up to a horizon lets DriveWindow guarantee that no
// guard expires inside a driven window, so concurrent fetches only read
// guard state.
func (g *guardSet) refreshPoolUntil(pool *guardPool, rng guardRNG, now, horizon time.Time) {
	for i := range g.guards {
		if g.stale(i, horizon) {
			g.guards[i] = pool.sample(rng)
			g.expiry[i] = now.Add(guardLifetime(rng))
		}
	}
}

// pickPool rotates the guards expired at now, then draws one circuit's
// guard.
func (g *guardSet) pickPool(pool *guardPool, rng guardRNG, now time.Time) onion.Fingerprint {
	g.refreshPoolUntil(pool, rng, now, now)
	return g.guards[rng.Intn(len(g.guards))]
}

// pick is pickPool on a request's stream. Only a window of a guard
// lifetime or more rotates a guard mid-window; the rotation reads a copy
// of the stream, since a stream passed as a guardRNG lives on the heap,
// and the per-request stream must not.
func (g *guardSet) pick(pool *guardPool, draws *parallel.Stream, now time.Time) onion.Fingerprint {
	for i := range g.guards {
		if g.stale(i, now) {
			s := *draws
			g.refreshPoolUntil(pool, &s, now, now)
			*draws = s
			break
		}
	}
	return g.guards[draws.Draw(guardIndex)]
}
