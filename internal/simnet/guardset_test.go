package simnet

import (
	"math/rand"
	"testing"

	"torhs/internal/geo"
	"torhs/internal/onion"
	"torhs/internal/relaynet"
)

func TestGuardPoolUniformSampling(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	fps := make([]onion.Fingerprint, 10)
	for i := range fps {
		fps[i] = onion.RandomFingerprint(rng)
	}
	pool := newGuardPool(fps, nil)
	counts := map[onion.Fingerprint]int{}
	for i := 0; i < 10000; i++ {
		counts[pool.sample(rng)]++
	}
	for fp, n := range counts {
		if n < 700 || n > 1300 {
			t.Fatalf("uniform pool skewed: %s got %d of 10000", fp.Hex()[:8], n)
		}
	}
}

func TestGuardPoolWeightedSampling(t *testing.T) {
	rng := rand.New(rand.NewSource(2))
	fps := []onion.Fingerprint{onion.RandomFingerprint(rng), onion.RandomFingerprint(rng)}
	pool := newGuardPool(fps, []int{900, 100})
	counts := map[onion.Fingerprint]int{}
	for i := 0; i < 10000; i++ {
		counts[pool.sample(rng)]++
	}
	frac := float64(counts[fps[0]]) / 10000
	if frac < 0.85 || frac > 0.95 {
		t.Fatalf("heavy guard share = %.3f, want ~0.9", frac)
	}
}

func TestGuardPoolZeroWeightsClamped(t *testing.T) {
	rng := rand.New(rand.NewSource(3))
	fps := []onion.Fingerprint{onion.RandomFingerprint(rng), onion.RandomFingerprint(rng)}
	pool := newGuardPool(fps, []int{0, 0})
	seen := map[onion.Fingerprint]bool{}
	for i := 0; i < 100; i++ {
		seen[pool.sample(rng)] = true
	}
	if len(seen) != 2 {
		t.Fatal("zero-weight guards never sampled")
	}
}

func TestWeightedGuardsBiasClientSelection(t *testing.T) {
	fleet := relaynet.DefaultFleetConfig(4)
	fleet.Days = 1
	sim, err := relaynet.NewSim(fleet)
	if err != nil {
		t.Fatal(err)
	}
	h, err := sim.Run(nil)
	if err != nil {
		t.Fatal(err)
	}
	doc := h.All()[0]
	db, err := geo.NewDB(geo.DefaultBotnetMix())
	if err != nil {
		t.Fatal(err)
	}

	cfg := DefaultConfig(4)
	cfg.Clients = 3000
	cfg.WeightedGuards = true
	net, err := NewNetwork(doc, db, cfg)
	if err != nil {
		t.Fatal(err)
	}

	// Tally guard usage over one circuit per client.
	now := doc.ValidAfter
	usage := map[onion.Fingerprint]int{}
	for _, c := range net.clients {
		usage[c.gs.pickPool(net.pool, net.rng, now)]++
	}

	// Selections must correlate with bandwidth: the top-bandwidth
	// quartile of guards should carry far more than the bottom quartile.
	guards := doc.Guards()
	type gw struct {
		fp onion.Fingerprint
		bw int
	}
	ranked := make([]gw, 0, len(guards))
	for _, fp := range guards {
		e, _ := doc.Lookup(fp)
		ranked = append(ranked, gw{fp: fp, bw: e.Bandwidth})
	}
	for i := 0; i < len(ranked); i++ {
		for j := i + 1; j < len(ranked); j++ {
			if ranked[j].bw > ranked[i].bw {
				ranked[i], ranked[j] = ranked[j], ranked[i]
			}
		}
	}
	q := len(ranked) / 4
	top, bottom := 0, 0
	for i := 0; i < q; i++ {
		top += usage[ranked[i].fp]
		bottom += usage[ranked[len(ranked)-1-i].fp]
	}
	if top <= 2*bottom {
		t.Fatalf("weighted selection not biased: top quartile %d, bottom %d", top, bottom)
	}
}
