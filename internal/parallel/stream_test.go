package parallel

import (
	"fmt"
	"testing"
)

// TestStreamMatchesRand pins Stream against NewRNG(seed) over 10^6 seeds
// per shape, drawing what a driven request draws: Int63n of its window,
// Intn of its client count, then a Float64 (a phantom's target) or an
// Intn(2) (a replica), and then its fetch's draws: Intn(3) for the guard
// (through the Intn method, as a guard rotation's draws go), then
// Intn(1), Intn(2) and Intn(3) for the contact order. Every draw must
// equal the rand.Rand's, and
// the stream's next output must be the rand.Rand's next. A 2^62+1
// window and 2^30+1 clients make Int63n and Int31n reject about half
// their first outputs, so the redraw paths run too.
func TestStreamMatchesRand(t *testing.T) {
	seeds := 1_000_000
	if testing.Short() {
		seeds = 50_000
	}
	shapes := []struct {
		window int64
		n      int
	}{
		{7_200_000_000_000, 1000}, // a two-hour trawl step in ns
		{1 << 40, 1 << 10},        // powers of two: masks, never a redraw
		{1<<62 + 1, 1<<30 + 1},    // forced rejections on both bounded draws
		{1<<62 + 1, 1<<31 + 5},    // Intn above int32 goes through Int63n
	}
	rng := NewRNG(0)
	for _, sh := range shapes {
		for _, phantom := range []bool{true, false} {
			t.Run(fmt.Sprintf("window=%d/n=%d/phantom=%v", sh.window, sh.n, phantom), func(t *testing.T) {
				redrawn := 0
				for i := 0; i < seeds; i++ {
					seed := SeedFor(int64(sh.n), int64(i))
					s := StreamAt(seed)
					rng.Seed(seed)
					if a, b := s.Draw(Int63nBound(sh.window)), rng.Int63n(sh.window); a != b {
						t.Fatalf("seed %d: Int63n %d, rand.Rand %d", seed, a, b)
					}
					if a, b := s.Draw(IntnBound(sh.n)), int64(rng.Intn(sh.n)); a != b {
						t.Fatalf("seed %d: Intn %d, rand.Rand %d", seed, a, b)
					}
					if phantom {
						if a, b := s.Float64(), rng.Float64(); a != b {
							t.Fatalf("seed %d: Float64 %v, rand.Rand %v", seed, a, b)
						}
					} else if a, b := s.Draw(IntnBound(2)), int64(rng.Intn(2)); a != b {
						t.Fatalf("seed %d: Intn(2) %d, rand.Rand %d", seed, a, b)
					}
					if s.read > 3 {
						redrawn++
					}
					if a, b := s.Intn(3), rng.Intn(3); a != b {
						t.Fatalf("seed %d: guard Intn(3) %d, rand.Rand %d", seed, a, b)
					}
					for k := 1; k <= 3; k++ {
						if a, b := s.Draw(IntnBound(k)), int64(rng.Intn(k)); a != b {
							t.Fatalf("seed %d: contact-order Intn(%d) %d, rand.Rand %d", seed, k, a, b)
						}
					}
					if a, b := s.Int63(), rng.Int63(); a != b {
						t.Fatalf("seed %d: the stream goes on with %d, rand.Rand with %d", seed, a, b)
					}
				}
				if forced := sh.window == 1<<62+1 && sh.n < 1<<31; forced && redrawn < seeds/2 {
					t.Fatalf("only %d of %d seeds redrew", redrawn, seeds)
				}
			})
		}
	}
}

// TestStreamFloat64RedrawsOne feeds a third output whose Float64 rounds
// to 1 straight in: a seed built by inverting the splitmix64 finaliser
// yields it, and Stream must redraw exactly as rand.Rand does.
func TestStreamFloat64RedrawsOne(t *testing.T) {
	for _, x := range []uint64{1<<64 - 1, 1<<64 - 2, 1<<64 - 1024, 1<<64 - 4096} {
		seed := seedWithOutput(x, 3)
		if got := uint64(SeedFor(seed, 2)); got != x {
			t.Fatalf("built seed's third output %#x, want %#x", got, x)
		}
		s, rng := StreamAt(seed), NewRNG(seed)
		s.Int63()
		s.Int63()
		rng.Int63()
		rng.Int63()
		a, b := s.Float64(), rng.Float64()
		if a != b || a >= 1 {
			t.Fatalf("third output %#x: Float64 %v, rand.Rand %v", x, a, b)
		}
		want := uint64(3)
		if float64(int64(x>>1))/(1<<63) == 1 {
			want++ // the third output rounds to 1: one redraw
		}
		if s.read != want {
			t.Fatalf("third output %#x: %d outputs read, want %d", x, s.read, want)
		}
		if s.Int63() != rng.Int63() {
			t.Fatalf("third output %#x: stream position differs from rand.Rand's", x)
		}
	}
}

// seedWithOutput returns the seed whose NewRNG yields x as its k-th
// output: the splitmix64 finaliser is a bijection, so it inverts.
func seedWithOutput(x uint64, k int) int64 {
	z := unshift(x, 31) * inverse(0x94d049bb133111eb)
	z = unshift(z, 27) * inverse(0xbf58476d1ce4e5b9)
	return int64(unshift(z, 30) - uint64(k)*golden)
}

// unshift inverts z ^ z>>s.
func unshift(y uint64, s uint) uint64 {
	x := y
	for i := uint(0); i < 64/s; i++ {
		x = y ^ x>>s
	}
	return x
}

// inverse returns c's multiplicative inverse mod 2^64 (c odd), by
// Newton's iteration.
func inverse(c uint64) uint64 {
	x := c
	for i := 0; i < 6; i++ {
		x *= 2 - c*x
	}
	return x
}
