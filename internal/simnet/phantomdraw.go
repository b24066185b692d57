package simnet

import (
	"math"
	"math/bits"
	"math/rand"
	"sync"
	"sync/atomic"
)

// phantomExponent shapes the phantom popularity law: a draw u maps to
// index int(n * u^phantomExponent), so low indexes are requested far
// more often.
const phantomExponent = 2.2

// guardBand is the relative distance from a cut within which a draw is
// recomputed with powIndex instead of trusting the cut table (2^-30).
const guardBand = 0x1p-30

// powIndex is the phantom index of draw u in a pool of n: the defining
// expression of the phantom popularity law, clamped to the pool. It is
// the cut table's fallback and its test oracle.
func powIndex(n int, u float64) int {
	idx := int(float64(n) * math.Pow(u, phantomExponent))
	if idx >= n {
		idx = n - 1
	}
	return idx
}

// cutTable inverts powIndex for one pool size n. cuts[k-1] is
// (k/n)^(1/phantomExponent), the draw at which the index reaches k, for
// k = 1..n (cuts[n-1] is exactly 1, above every draw); the index of u is
// the number of cuts at or below u. first[b] is that count at u =
// b/len(first), so a lookup starts at first[int(u*len(first))] and scans
// forward. len(first) is a power of two, which makes u*len(first) exact,
// and above 3n: consecutive cuts lie at least 1/(2.2n) apart, so the
// scan passes at most one cut.
type cutTable struct {
	n     int
	cuts  []float64
	first []int32
}

func newCutTable(n int) *cutTable {
	c := &cutTable{n: n, cuts: make([]float64, n)}
	for k := 1; k < n; k++ {
		c.cuts[k-1] = math.Pow(float64(k)/float64(n), 1/phantomExponent)
	}
	c.cuts[n-1] = 1
	c.first = make([]int32, 1<<bits.Len(uint(3*n)))
	i := 0
	for b := range c.first {
		x := float64(b) / float64(len(c.first))
		for c.cuts[i] <= x {
			i++
		}
		c.first[b] = int32(i)
	}
	return c
}

// lookup returns powIndex(c.n, u) for u in [0, 1), and false instead
// when u lies within guardBand of a neighbouring cut, where only
// powIndex itself can say which side of the cut it falls on.
//
//torhs:hotpath
func (c *cutTable) lookup(u float64) (int, bool) {
	i := int(c.first[int(u*float64(len(c.first)))])
	for c.cuts[i] <= u {
		i++
	}
	if u > c.cuts[i]*(1-guardBand) || i > 0 && u < c.cuts[i-1]*(1+guardBand) {
		return 0, false
	}
	return i, true
}

// maxCutTables bounds the memo: a process draws from one pool size per
// scenario scale, so this many covers every preset at once.
const maxCutTables = 8

// cutTables holds the most recently built cut tables, newest first. The
// list is short, so a linear scan finds a table in a compare or two,
// and it is replaced, never mutated, so readers take no lock. A table
// depends only on its pool size, so what the memo holds never changes a
// draw.
var cutTables struct {
	mu   sync.Mutex // serialises builders
	list atomic.Pointer[[]*cutTable]
}

// cutsFor returns the shared, read-only cut table for pool size n,
// building it on first use.
func cutsFor(n int) *cutTable {
	if c := findCuts(n); c != nil {
		return c
	}
	cutTables.mu.Lock()
	defer cutTables.mu.Unlock()
	if c := findCuts(n); c != nil {
		return c
	}
	c := newCutTable(n)
	list := []*cutTable{c}
	if old := cutTables.list.Load(); old != nil {
		list = append(list, (*old)[:min(len(*old), maxCutTables-1)]...)
	}
	cutTables.list.Store(&list)
	return c
}

func findCuts(n int) *cutTable {
	if list := cutTables.list.Load(); list != nil {
		for _, c := range *list {
			if c.n == n {
				return c
			}
		}
	}
	return nil
}

// draw picks one phantom request's target: index powIndex(len(t), u) for
// one rng.Float64 draw u, so low indexes are requested far more often.
//
// The index comes from the pool size's cut table, which returns exactly
// what powIndex would. Away from the cuts the two cannot disagree:
// Go's math.Pow(u, 2.2) computes Exp(0.2*Log(u)) times u squared by
// mantissa, each step within an ulp or so, and |0.2*ln u| is at most
// 150, so the computed power is within a relative 2^-42 of the true one
// (the cuts themselves are closer still). A draw farther than 2^-30
// from every cut therefore lands on the same side of each cut under
// both. Draws within 2^-30 of a cut — a few in a hundred thousand at
// paper scale — are recomputed with powIndex itself.
//
//torhs:hotpath
func (t phantomTable) draw(rng *rand.Rand) *phantom {
	u := rng.Float64()
	idx, ok := cutsFor(len(t)).lookup(u)
	if !ok {
		idx = powIndex(len(t), u)
	}
	return &t[idx]
}
