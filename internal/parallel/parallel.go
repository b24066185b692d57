// Package parallel provides the small worker-pool primitives the
// experiment pipelines share: bounded fan-out over index ranges, a
// dependency-ordered task DAG, and deterministic per-index seed
// derivation.
//
// Every helper is written so that the *result* of a computation depends
// only on the inputs, never on the worker count: callers shard work by
// index, derive any randomness from SeedFor, and merge partial results in
// index order. Workers only changes wall-clock time.
package parallel

import (
	"math/rand"
	"runtime"
	"sync"
)

// Workers normalises a worker-count knob: values <= 0 mean "one worker
// per available CPU", everything else is used as-is.
func Workers(n int) int {
	if n <= 0 {
		return runtime.GOMAXPROCS(0)
	}
	return n
}

// Effective clamps a worker-count knob for an n-item loop to
// min(Workers(workers), n, GOMAXPROCS): more goroutines than items or
// schedulable CPUs only add spawn and scheduling overhead, never
// throughput, and the clamp is what gives Workers==1 (and 1-core boxes)
// a zero-spawn sequential path in ForEach and Chunks.
func Effective(workers, n int) int {
	w := Workers(workers)
	if p := runtime.GOMAXPROCS(0); w > p {
		w = p
	}
	if w > n {
		w = n
	}
	return w
}

// ForEach runs fn(i) for every i in [0,n) on up to workers goroutines.
// It blocks until all calls return. fn must be safe to call concurrently;
// the assignment of indexes to goroutines is unspecified, so fn must not
// depend on execution order. With workers <= 1 (after clamping to n and
// GOMAXPROCS) the calls run inline on the caller's goroutine, in index
// order, with no goroutine spawned.
func ForEach(workers, n int, fn func(i int)) {
	workers = Effective(workers, n)
	if workers <= 1 {
		for i := 0; i < n; i++ {
			fn(i)
		}
		return
	}
	var (
		wg   sync.WaitGroup
		next int
		mu   sync.Mutex
	)
	// Batched work-stealing: each grab takes a small contiguous run of
	// indexes, amortising the mutex without the imbalance of one huge
	// chunk per worker.
	batch := n / (workers * 8)
	if batch < 1 {
		batch = 1
	}
	wg.Add(workers)
	for w := 0; w < workers; w++ {
		go func() {
			defer wg.Done()
			for {
				mu.Lock()
				lo := next
				next += batch
				mu.Unlock()
				if lo >= n {
					return
				}
				hi := lo + batch
				if hi > n {
					hi = n
				}
				for i := lo; i < hi; i++ {
					fn(i)
				}
			}
		}()
	}
	wg.Wait()
}

// Chunks partitions [0,n) into at most workers contiguous [lo,hi) spans
// of near-equal size and runs fn on each concurrently. Use it when a
// shard needs its own accumulator that is later merged in shard order:
// fn(shard, lo, hi) with shard in [0, NumChunks(workers, n)). Because the
// spans are contiguous and ascending, concatenating per-shard results in
// shard index order reproduces global index order exactly — the property
// every deterministic merge in this repo leans on. A single shard (after
// clamping) runs inline with no goroutine spawned.
func Chunks(workers, n int, fn func(shard, lo, hi int)) {
	shards := NumChunks(workers, n)
	if shards == 0 {
		return
	}
	if shards == 1 {
		fn(0, 0, n)
		return
	}
	var wg sync.WaitGroup
	wg.Add(shards)
	for s := 0; s < shards; s++ {
		lo := s * n / shards
		hi := (s + 1) * n / shards
		go func(shard, lo, hi int) {
			defer wg.Done()
			fn(shard, lo, hi)
		}(s, lo, hi)
	}
	wg.Wait()
}

// NumChunks reports how many shards Chunks(workers, n, ...) will create,
// so callers can pre-size their per-shard accumulator slices. Chunks
// itself derives its shard count from this function, so the two can
// never disagree.
func NumChunks(workers, n int) int {
	return Effective(workers, n)
}

// SeedFor derives a statistically independent sub-seed for index idx
// from a base seed, using the splitmix64 finaliser. The derivation is a
// pure function of (base, idx), so shard layouts and worker counts never
// change the random stream an index sees.
func SeedFor(base, idx int64) int64 {
	z := uint64(base) + uint64(idx+1)*golden
	z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9
	z = (z ^ (z >> 27)) * 0x94d049bb133111eb
	return int64(z ^ (z >> 31))
}

// golden is splitmix64's state increment (2^64 over the golden ratio).
const golden = 0x9e3779b97f4a7c15

// Stream reads the stream of NewRNG(seed) without a rand.Rand. A
// splitmix64 state is a plain counter (Steele, Lea and Flood, "Fast
// splittable pseudorandom number generators", OOPSLA 2014): the k-th
// output of the stream seeded with s is SeedFor(s, k-1), so a Stream is
// a seed and a count of outputs read. Int63, Intn and Float64 return
// what the *rand.Rand methods of the same name return at the same stream
// position, redraws included, and Draw what Int63n or Intn does over a
// precomputed Bound. The zero value reads the stream of seed 0.
type Stream struct {
	seed int64
	read uint64
}

// StreamAt returns a Stream at the start of NewRNG(seed)'s stream.
func StreamAt(seed int64) Stream { return Stream{seed: seed} }

// Int63 is rand.Rand.Int63.
func (s *Stream) Int63() int64 {
	s.read++
	return int64(uint64(SeedFor(s.seed, int64(s.read-1))) >> 1)
}

// Draw is rand.Rand.Int63n(n) or rand.Rand.Intn(n), as b was made.
func (s *Stream) Draw(b Bound) int64 {
	for {
		v := s.Int63() >> b.shift
		if b.n&(b.n-1) == 0 {
			return v & (b.n - 1)
		}
		if v <= b.max {
			return v % b.n
		}
	}
}

// Bound is the range [0, n) of one bounded draw, with math/rand's
// rejection threshold precomputed: a loop that draws from one range many
// times pays one division per draw instead of two.
type Bound struct {
	n     int64
	max   int64 // the largest output (shifted) the draw accepts
	shift uint  // 32 when the draw takes an Int31, as Intn's Int31n does
}

// Int63nBound is the range of rand.Rand.Int63n(n).
func Int63nBound(n int64) Bound {
	if n <= 0 {
		panic("invalid argument to Int63n")
	}
	return Bound{n: n, max: int64((1 << 63) - 1 - (1<<63)%uint64(n))}
}

// IntnBound is the range of rand.Rand.Intn(n), which draws through
// Int31n below 2^31.
func IntnBound(n int) Bound {
	if n <= 0 {
		panic("invalid argument to Intn")
	}
	if n > 1<<31-1 {
		return Int63nBound(int64(n))
	}
	return Bound{n: int64(n), max: int64((1 << 31) - 1 - (1<<31)%uint32(n)), shift: 32}
}

// Intn is rand.Rand.Intn. A loop drawing one range many times should
// make its Bound once and call Draw.
func (s *Stream) Intn(n int) int { return int(s.Draw(IntnBound(n))) }

// Float64 is rand.Rand.Float64: it draws again when the quotient
// rounds to 1.
func (s *Stream) Float64() float64 {
	for {
		if f := float64(s.Int63()) / (1 << 63); f < 1 {
			return f
		}
	}
}

// splitmixSource is a splitmix64 stream implementing rand.Source64.
// Unlike math/rand's default source (a 607-word table costing ~150µs to
// seed), it seeds in O(1) — which is what makes one-RNG-per-work-item
// affordable on hot paths.
type splitmixSource struct {
	state uint64
}

func (s *splitmixSource) Uint64() uint64 {
	s.state += golden
	z := s.state
	z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9
	z = (z ^ (z >> 27)) * 0x94d049bb133111eb
	return z ^ (z >> 31)
}

func (s *splitmixSource) Int63() int64 { return int64(s.Uint64() >> 1) }

func (s *splitmixSource) Seed(seed int64) { s.state = uint64(seed) }

// NewRNG returns a *rand.Rand over a splitmix64 source seeded with seed.
// Use it (typically with SeedFor) wherever a parallel loop needs one
// cheap deterministic RNG per work item.
func NewRNG(seed int64) *rand.Rand {
	return rand.New(&splitmixSource{state: uint64(seed)})
}
