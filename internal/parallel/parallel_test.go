package parallel

import (
	"runtime"
	"sync/atomic"
	"testing"
)

func TestForEachCoversAllIndexes(t *testing.T) {
	for _, workers := range []int{0, 1, 3, 8, 100} {
		const n = 1000
		var hits [n]int32
		ForEach(workers, n, func(i int) {
			atomic.AddInt32(&hits[i], 1)
		})
		for i, h := range hits {
			if h != 1 {
				t.Fatalf("workers=%d: index %d hit %d times", workers, i, h)
			}
		}
	}
}

func TestForEachEmpty(t *testing.T) {
	called := false
	ForEach(4, 0, func(int) { called = true })
	if called {
		t.Fatal("fn called for empty range")
	}
}

func TestChunksPartition(t *testing.T) {
	for _, workers := range []int{1, 2, 7, 16} {
		for _, n := range []int{0, 1, 5, 97} {
			covered := make([]int32, n)
			shards := NumChunks(workers, n)
			seen := make([]int32, shards+1)
			Chunks(workers, n, func(shard, lo, hi int) {
				atomic.AddInt32(&seen[shard], 1)
				if lo > hi || hi > n {
					t.Errorf("bad span [%d,%d) for n=%d", lo, hi, n)
				}
				for i := lo; i < hi; i++ {
					atomic.AddInt32(&covered[i], 1)
				}
			})
			for i, c := range covered {
				if c != 1 {
					t.Fatalf("workers=%d n=%d: index %d covered %d times", workers, n, i, c)
				}
			}
			for s := 0; s < shards; s++ {
				if seen[s] != 1 {
					t.Fatalf("workers=%d n=%d: shard %d run %d times", workers, n, s, seen[s])
				}
			}
		}
	}
}

// TestEffectiveClamps pins the worker clamp: min(workers, n, GOMAXPROCS),
// with <= 0 meaning one per CPU. GOMAXPROCS is pinned for the test so the
// expectations hold on any box.
func TestEffectiveClamps(t *testing.T) {
	old := runtime.GOMAXPROCS(4)
	defer runtime.GOMAXPROCS(old)
	cases := []struct{ workers, n, want int }{
		{1, 100, 1},   // explicit sequential
		{2, 100, 2},   // under every bound
		{8, 100, 4},   // clamped by GOMAXPROCS
		{8, 3, 3},     // clamped by n
		{0, 100, 4},   // auto: one per CPU
		{0, 2, 2},     // auto, clamped by n
		{100, 100, 4}, // clamped by GOMAXPROCS
		{3, 0, 0},     // empty range
	}
	for _, c := range cases {
		if got := Effective(c.workers, c.n); got != c.want {
			t.Errorf("Effective(%d, %d) = %d, want %d", c.workers, c.n, got, c.want)
		}
		if got := NumChunks(c.workers, c.n); got != c.want {
			t.Errorf("NumChunks(%d, %d) = %d, want %d", c.workers, c.n, got, c.want)
		}
	}
}

// TestChunksBoundariesPinned pins the exact [lo,hi) spans Chunks hands
// out: contiguous, ascending, s*n/shards..(s+1)*n/shards — the invariant
// that makes shard-then-index merges reproduce global index order.
func TestChunksBoundariesPinned(t *testing.T) {
	old := runtime.GOMAXPROCS(4)
	defer runtime.GOMAXPROCS(old)
	for _, c := range []struct{ workers, n int }{
		{4, 10}, {3, 7}, {2, 97}, {4, 4}, {1, 5}, {4, 2},
	} {
		shards := NumChunks(c.workers, c.n)
		type span struct{ lo, hi int }
		got := make([]span, shards)
		Chunks(c.workers, c.n, func(shard, lo, hi int) {
			got[shard] = span{lo, hi}
		})
		for s := 0; s < shards; s++ {
			wantLo, wantHi := s*c.n/shards, (s+1)*c.n/shards
			if got[s].lo != wantLo || got[s].hi != wantHi {
				t.Errorf("workers=%d n=%d shard %d: span [%d,%d), want [%d,%d)",
					c.workers, c.n, s, got[s].lo, got[s].hi, wantLo, wantHi)
			}
		}
		if shards > 0 && (got[0].lo != 0 || got[shards-1].hi != c.n) {
			t.Errorf("workers=%d n=%d: spans do not cover [0,%d)", c.workers, c.n, c.n)
		}
	}
}

// TestForEachSequentialPathIsOrdered pins the zero-spawn path: at
// workers=1 the indexes arrive inline, in ascending order — which only a
// same-goroutine loop can guarantee.
func TestForEachSequentialPathIsOrdered(t *testing.T) {
	const n = 100
	var order []int // deliberately unsynchronised: -race proves inline execution
	ForEach(1, n, func(i int) { order = append(order, i) })
	if len(order) != n {
		t.Fatalf("fn ran %d times, want %d", len(order), n)
	}
	for i, v := range order {
		if v != i {
			t.Fatalf("sequential path visited index %d at position %d", v, i)
		}
	}
}

// TestForEachEveryIndexOnceAboveGOMAXPROCS covers the clamp path: worker
// counts far above GOMAXPROCS and n still see every index exactly once.
func TestForEachEveryIndexOnceAboveGOMAXPROCS(t *testing.T) {
	old := runtime.GOMAXPROCS(2)
	defer runtime.GOMAXPROCS(old)
	const n = 500
	var hits [n]int32
	ForEach(64, n, func(i int) { atomic.AddInt32(&hits[i], 1) })
	for i, h := range hits {
		if h != 1 {
			t.Fatalf("index %d hit %d times", i, h)
		}
	}
}

func TestSeedForIsPureAndSpread(t *testing.T) {
	if SeedFor(42, 7) != SeedFor(42, 7) {
		t.Fatal("SeedFor not deterministic")
	}
	seen := make(map[int64]bool)
	for i := int64(0); i < 1000; i++ {
		s := SeedFor(42, i)
		if seen[s] {
			t.Fatalf("collision at idx %d", i)
		}
		seen[s] = true
	}
	if SeedFor(1, 0) == SeedFor(2, 0) {
		t.Fatal("base seed ignored")
	}
}
