package simnet

import (
	"math/rand"
	"sort"
	"time"

	"torhs/internal/onion"
)

// guardPool is the set of Guard-flagged relays clients choose from,
// optionally weighted by consensus bandwidth (as the real client does).
type guardPool struct {
	fps []onion.Fingerprint
	// cum holds cumulative bandwidth weights; nil means uniform.
	cum []int64
}

func newGuardPool(fps []onion.Fingerprint, weights []int) *guardPool {
	p := &guardPool{fps: fps}
	if len(weights) == len(fps) && len(fps) > 0 {
		p.cum = make([]int64, len(fps))
		var acc int64
		for i, w := range weights {
			if w < 1 {
				w = 1
			}
			acc += int64(w)
			p.cum[i] = acc
		}
	}
	return p
}

func (p *guardPool) sample(rng *rand.Rand) onion.Fingerprint {
	if p.cum == nil {
		return p.fps[rng.Intn(len(p.fps))]
	}
	total := p.cum[len(p.cum)-1]
	r := rng.Int63n(total)
	i := sort.Search(len(p.cum), func(i int) bool { return p.cum[i] > r })
	return p.fps[i]
}

// guardSet is the entry-guard state shared by clients and hidden-service
// hosts: three guards, each rotated after a uniform 30–60 day lifetime,
// one picked per circuit.
type guardSet struct {
	guards [3]onion.Fingerprint
	expiry [3]time.Time
}

func (g *guardSet) refreshPool(pool *guardPool, rng *rand.Rand, now time.Time) {
	g.refreshPoolUntil(pool, rng, now, now)
}

// refreshPoolUntil rotates every guard that is (or will be by horizon)
// expired. Refreshing up to a horizon lets DriveWindow guarantee that no
// guard expires inside a driven window, so concurrent fetches only read
// guard state.
func (g *guardSet) refreshPoolUntil(pool *guardPool, rng *rand.Rand, now, horizon time.Time) {
	for i := range g.guards {
		if g.expiry[i].IsZero() || horizon.After(g.expiry[i]) {
			g.guards[i] = pool.sample(rng)
			g.expiry[i] = now.Add(guardLifetime(rng))
		}
	}
}

func (g *guardSet) pickPool(pool *guardPool, rng *rand.Rand, now time.Time) onion.Fingerprint {
	g.refreshPool(pool, rng, now)
	return g.guards[rng.Intn(len(g.guards))]
}
