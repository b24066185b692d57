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
// sequence is the one the expression int(n * u^2.2) consumed. With a
// dead-bucket bitmap (here: no phantom observed, so nearly every bucket
// is dead) a draw still consumes one Float64, and returns either nil or
// that same entry.
func TestPhantomDrawConsumesOneFloat64(t *testing.T) {
	for _, n := range []int{50, 23010} {
		s := phantomSampler{table: make(phantomTable, n), cuts: cutsFor(n)}
		dead := make([]uint64, (len(s.cuts.first)+63)/64)
		s.table.deadBuckets(s.cuts, dead)
		for _, bitmap := range [][]uint64{nil, dead} {
			s.dead = bitmap
			a, b := rand.New(rand.NewSource(3)), rand.New(rand.NewSource(3))
			skipped := 0
			for i := 0; i < 1000; i++ {
				p := s.pick(a.Float64())
				if want := powIndex(n, b.Float64()); p == nil && bitmap != nil {
					skipped++
				} else if p != &s.table[want] {
					t.Fatalf("n=%d dead=%v draw %d did not pick entry %d", n, bitmap != nil, i, want)
				}
				if x, y := a.Int63(), b.Int63(); x != y {
					t.Fatalf("n=%d dead=%v draw %d: streams diverged after one draw", n, bitmap != nil, i)
				}
			}
			if bitmap != nil && skipped < 990 {
				t.Fatalf("n=%d: only %d of 1000 draws hit a dead bucket with nothing observed", n, skipped)
			}
		}
	}
}

// TestDeadBucketsReachOnlyUnobserved checks the dead-bucket bitmap
// against the draws it lets a window skip, at the minimum, smoke, laptop
// and paper pool sizes, over random observed patterns of several
// densities: for every marked bucket, powIndex and the table index at
// both edges, within 2^-29 of them inside the bucket and at 64 more
// points across it must pick an unobserved phantom; over 10^6 random
// draws, every draw the sampler drops must pick one too. Marks must
// also be common where observed phantoms are rare.
func TestDeadBucketsReachOnlyUnobserved(t *testing.T) {
	for _, n := range phantomPoolSizes()[:4] {
		for _, density := range []float64{0, 0.01, 0.08, 0.5, 1} {
			t.Run(fmt.Sprintf("n=%d/observed=%v", n, density), func(t *testing.T) {
				t.Parallel()
				rng := rand.New(rand.NewSource(int64(n) + int64(density*1000)))
				s := phantomSampler{table: make(phantomTable, n), cuts: cutsFor(n)}
				for i := range s.table {
					s.table[i].set.observed = rng.Float64() < density
				}
				nb := len(s.cuts.first)
				s.dead = make([]uint64, (nb+63)/64)
				s.table.deadBuckets(s.cuts, s.dead)
				isDead := func(b int) bool { return s.dead[b>>6]&(1<<(b&63)) != 0 }
				reach := func(b int, u float64) {
					if s.cuts.bucket(u) != b {
						return // rounded out of the bucket
					}
					for _, idx := range []int{powIndex(n, u), s.cuts.index(u)} {
						if s.table[idx].set.observed {
							t.Fatalf("dead bucket %d: draw %v picks observed phantom %d", b, u, idx)
						}
					}
				}
				marked := 0
				for b := 0; b < nb; b++ {
					if !isDead(b) {
						continue
					}
					marked++
					lo, hi := float64(b)/float64(nb), float64(b+1)/float64(nb)
					for _, u := range []float64{lo, lo * (1 + 0x1p-29), math.Nextafter(hi, 0), hi * (1 - 0x1p-29)} {
						reach(b, u)
					}
					for k := 0; k < 64; k++ {
						reach(b, lo+(hi-lo)*rng.Float64())
					}
				}
				if want := float64(nb) * (1 - density) * (1 - density) / 2; density < 0.1 && float64(marked) < want {
					t.Fatalf("%d of %d buckets marked dead at observed density %v, want at least %.0f", marked, nb, density, want)
				}
				if density == 1 && marked != 0 {
					t.Fatalf("%d buckets marked dead with every phantom observed", marked)
				}
				draws := rand.New(rand.NewSource(int64(n)))
				oracle := rand.New(rand.NewSource(int64(n)))
				for i := 0; i < 1_000_000; i++ {
					p := s.pick(draws.Float64())
					idx := powIndex(n, oracle.Float64())
					switch {
					case p == nil && s.table[idx].set.observed:
						t.Fatalf("draw %d dropped, but picks observed phantom %d", i, idx)
					case p != nil && p != &s.table[idx]:
						t.Fatalf("draw %d picked entry %x, oracle entry %d", i, p.id[:4], idx)
					}
				}
			})
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
	n := hspop.PaperConfig(1).PhantomUniqueIDs
	s := phantomSampler{table: make(phantomTable, n), cuts: cutsFor(n)}
	rng := rand.New(rand.NewSource(1))
	b.Run("table", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			s.pick(rng.Float64())
		}
	})
	b.Run("pow", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			_ = &s.table[powIndex(n, rng.Float64())]
		}
	})
}
