package simnet

import (
	"math"
	"math/bits"
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
func (c *cutTable) lookup(u float64) (int, bool) {
	i := int(c.first[c.bucket(u)])
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

// index returns powIndex(c.n, u) for u in [0, 1): from the table, or
// recomputed by powIndex itself when u lies within guardBand of a cut.
//
// Away from the cuts the two cannot disagree: Go's math.Pow(u, 2.2)
// computes Exp(0.2*Log(u)) times u squared by mantissa, each step
// within an ulp or so, and |0.2*ln u| is at most 150, so the computed
// power is within a relative 2^-42 of the true one (the cuts themselves
// are closer still). A draw farther than 2^-30 from every cut therefore
// lands on the same side of each cut under both. Draws within 2^-30 of a
// cut — a few in a hundred thousand at paper scale — are recomputed.
func (c *cutTable) index(u float64) int {
	if idx, ok := c.lookup(u); ok {
		return idx
	}
	return powIndex(c.n, u)
}

// bucket returns the bucket of first that draw u falls in: the b with
// b/len(first) <= u < (b+1)/len(first).
func (c *cutTable) bucket(u float64) int { return int(u * float64(len(c.first))) }

// nearCut reports whether bucket edge e/len(first), for e in
// [0, len(first)], lies within guardBand of a cut: whether a draw at
// that edge would fall back to powIndex.
func (c *cutTable) nearCut(e int) bool {
	x := float64(e) / float64(len(c.first))
	i := c.n // cuts at or below x
	if e < len(c.first) {
		i = int(c.first[e])
	}
	return i > 0 && x < c.cuts[i-1]*(1+guardBand) || i < c.n && x > c.cuts[i]*(1-guardBand)
}

// deadBuckets sets bit b of dead (len(dead)*64 >= len(c.first)) when
// every draw in bucket b provably picks a phantom that no observed
// directory is responsible for, and clears every other bit; c must be
// the cut table of len(t).
//
// A draw u in bucket b has table index first[b] or more and first[b+1]
// or less (the count of cuts at or below u grows with u; in the last
// bucket the bound is n-1). Its powIndex fallback can differ from the
// table only by one step across a cut within guardBand of u: inside that
// range when the cut lies inside the bucket, and one step beyond it only
// when the cut lies within guardBand of an edge. Buckets with such an
// edge are never marked, so a marked bucket's draws reach only
// unobserved phantoms.
func (t phantomTable) deadBuckets(c *cutTable, dead []uint64) {
	clear(dead)
	nb := len(c.first)
	next := 0 // the first observed phantom at or above the bucket's lowest index
	for b := 0; b < nb; b++ {
		lo, hi := int(c.first[b]), c.n-1
		if b+1 < nb {
			hi = int(c.first[b+1])
		}
		for next < len(t) && (next < lo || !t[next].set.observed) {
			next++
		}
		if next > hi && !c.nearCut(b) && !c.nearCut(b+1) {
			dead[b>>6] |= 1 << (b & 63)
		}
	}
}

// phantomSampler picks a driven window's phantom request targets: index
// powIndex(len(table), u) for one rng.Float64 draw u, so low indexes are
// requested far more often, through the pool size's cut table.
//
// On a window that skips the requests no observed directory is
// responsible for, dead marks the cut-table buckets whose every draw
// picks such a phantom (see deadBuckets); a draw that lands in one
// returns nil at once, before the table is scanned. Such a request would
// be skipped anyway, right after its draw, so the bitmap changes no
// draw and no outcome — only how soon a skipped phantom stops.
type phantomSampler struct {
	table phantomTable
	cuts  *cutTable
	dead  []uint64 // nil unless the window skips
}

// pick returns the phantom that draw u (one Float64 from the request's
// stream) picks, or nil when u lies in a dead bucket.
func (s *phantomSampler) pick(u float64) *phantom {
	if s.dead != nil {
		if b := s.cuts.bucket(u); s.dead[b>>6]&(1<<(b&63)) != 0 {
			return nil
		}
	}
	return &s.table[s.cuts.index(u)]
}
