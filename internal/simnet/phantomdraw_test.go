package simnet

import (
	"fmt"
	"math"
	"math/rand"
	"sync"
	"testing"

	"torhs/internal/hspop"
	"torhs/internal/scenario"
)

// phantomPoolSizes are the pool sizes the cut table is checked at: the
// minimum pool, the smoke and laptop presets' pools, the paper's full
// pool and twice that.
func phantomPoolSizes() []int {
	sizes := []int{50}
	for _, name := range []string{scenario.Smoke, scenario.Laptop} {
		cfg := hspop.PaperConfig(1)
		cfg.Scale = scenario.MustLookup(name).Scale
		sizes = append(sizes, cfg.ScaledPhantomIDs())
	}
	full := hspop.PaperConfig(1).PhantomUniqueIDs
	return append(sizes, full, 2*full)
}

// ulpsFrom returns the float64 j ulps above (j < 0: below) the positive
// x.
func ulpsFrom(x float64, j int) float64 {
	return math.Float64frombits(uint64(int64(math.Float64bits(x)) + int64(j)))
}

// TestPhantomCutTableMatchesPow checks the cut table against the
// defining expression int(n * u^2.2), clamped to n-1, wherever the
// table answers (elsewhere the draw falls back to that expression): at
// every float64 within 300 ulps of every cut, all of which must fall
// back; within 16 ulps of both edges of every cut's guard band, where
// the table starts answering; at the extreme draws; and over 10^7
// random draws, of which fewer than one in a thousand may fall back.
func TestPhantomCutTableMatchesPow(t *testing.T) {
	for _, n := range phantomPoolSizes() {
		t.Run(fmt.Sprintf("n=%d", n), func(t *testing.T) {
			t.Parallel()
			c := cutsFor(n)
			if c.n != n || len(c.cuts) != n || c.cuts[n-1] != 1 {
				t.Fatalf("table for n=%d has n=%d, %d cuts, last %v", n, c.n, len(c.cuts), c.cuts[n-1])
			}
			// check reports whether the table answered u itself; where it
			// does not, draw falls back to powIndex.
			check := func(u float64) bool {
				got, ok := c.lookup(u)
				if want := powIndex(n, u); ok && got != want {
					t.Fatalf("u=%v (%#x): table index %d, pow index %d", u, math.Float64bits(u), got, want)
				}
				return ok
			}
			fast := 0
			for k, cut := range c.cuts {
				if k > 0 && cut <= c.cuts[k-1] {
					t.Fatalf("cuts %d and %d not increasing: %v, %v", k-1, k, c.cuts[k-1], cut)
				}
				for j := -300; j <= 300; j++ {
					if u := ulpsFrom(cut, j); u < 1 && check(u) {
						t.Fatalf("table answered a draw %d ulps from cut %d", j, k+1)
					}
				}
				for _, edge := range []float64{cut * (1 - guardBand), cut * (1 + guardBand)} {
					for j := -16; j <= 16; j++ {
						if u := ulpsFrom(edge, j); u < 1 && check(u) {
							fast++
						}
					}
				}
			}
			if fast == 0 {
				t.Fatal("no draw near a guard band edge took the table path")
			}
			for _, u := range []float64{0, 0x1p-63, 1 - 0x1p-53} {
				check(u)
			}
			rng := rand.New(rand.NewSource(int64(n)))
			const draws = 10_000_000
			fallbacks := 0
			for i := 0; i < draws; i++ {
				u := rng.Float64()
				if !check(u) {
					fallbacks++
				}
			}
			if fallbacks*1000 >= draws {
				t.Fatalf("%d of %d random draws fell back to math.Pow", fallbacks, draws)
			}
			t.Logf("n=%d: %d of %d random draws fell back", n, fallbacks, draws)
		})
	}
}

// TestPhantomDrawConsumesOneFloat64 pins the draw's RNG use: exactly one
// Float64, whose value alone picks the entry, so every request's draw
// sequence is the one the expression int(n * u^2.2) consumed.
func TestPhantomDrawConsumesOneFloat64(t *testing.T) {
	for _, n := range []int{50, 23010} {
		phantoms := make(phantomTable, n)
		a, b := rand.New(rand.NewSource(3)), rand.New(rand.NewSource(3))
		for i := 0; i < 1000; i++ {
			p := phantoms.draw(a)
			if want := powIndex(n, b.Float64()); p != &phantoms[want] {
				t.Fatalf("n=%d draw %d did not pick entry %d", n, i, want)
			}
			if x, y := a.Int63(), b.Int63(); x != y {
				t.Fatalf("n=%d draw %d: streams diverged after one draw", n, i)
			}
		}
	}
}

// TestCutsForConcurrent builds and reads the shared cut tables from
// several goroutines at once, over more pool sizes than the memo keeps,
// so builders race readers and evict each other's tables.
func TestCutsForConcurrent(t *testing.T) {
	var wg sync.WaitGroup
	for g := 0; g < 4; g++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < 50; i++ {
				n := 50 + (g+i)%(2*maxCutTables)
				if c := cutsFor(n); c.n != n || len(c.cuts) != n || c.cuts[n-1] != 1 {
					t.Errorf("cutsFor(%d) returned the table for %d", n, c.n)
					return
				}
			}
		}()
	}
	wg.Wait()
}

// BenchmarkPhantomDraw compares one phantom draw at the paper's pool
// size through the cut table with the defining math.Pow expression.
func BenchmarkPhantomDraw(b *testing.B) {
	phantoms := make(phantomTable, hspop.PaperConfig(1).PhantomUniqueIDs)
	rng := rand.New(rand.NewSource(1))
	b.Run("table", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			phantoms.draw(rng)
		}
	})
	b.Run("pow", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			_ = &phantoms[powIndex(len(phantoms), rng.Float64())]
		}
	})
}
