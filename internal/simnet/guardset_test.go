package simnet

import (
	"math/rand"
	"testing"

	"torhs/internal/onion"
)

func TestGuardPoolUniformSampling(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	fps := make([]onion.Fingerprint, 10)
	for i := range fps {
		fps[i] = onion.RandomFingerprint(rng)
	}
	pool := &guardPool{fps: fps}
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
