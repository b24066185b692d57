package hspop

import (
	"bytes"
	"encoding/binary"
	"math/bits"
	"slices"
	"sync"
	"sync/atomic"
	"time"

	"torhs/internal/onion"
	"torhs/internal/parallel"
)

// idCachePeriods bounds the descriptor-ID cache, in time periods. A
// publish sweep at one instant reads two periods (a service's period
// rolls over at a per-service offset within the day), and a study
// publishes from at most three networks at once — the two trawls and the
// client-deanonymisation network — so eight periods hold every live
// reader's working set however far apart along the time axis they are.
const idCachePeriods = 8

// idCache holds the descriptor IDs of every WithDescriptor() service for
// a few time periods. The zero value is ready to use.
type idCache struct {
	mu    sync.Mutex
	slots []*idSlot // at most idCachePeriods
	clock uint64    // read counter; idSlot.used orders evictions
	// derived counts the descriptor IDs the cache has derived.
	derived atomic.Int64
}

// idSlot is one time period of the cache, filled exactly once; its
// ID-sorted copy is built once too, on first use.
type idSlot struct {
	period     uint32
	used       uint64 // idCache.clock at the last read
	once       sync.Once
	ids        [][onion.Replicas]onion.DescriptorID
	sortedOnce sync.Once
	sorted     sortedIDs
}

// SortedID is one replica's entry in a period's ID-sorted copy of the
// population's descriptor IDs (see DescriptorIDs.EachIn).
type SortedID struct {
	ID onion.DescriptorID
	// Svc is the service's index in WithDescriptor().
	Svc     int32
	Replica uint8
	// roll is the service's PermID[0], which sets when its period rolls
	// over (see onion.TimePeriod).
	roll uint8
}

// DescriptorIDs is a view of the population's descriptor IDs at one
// instant: Of(i) returns both replica IDs of WithDescriptor()[i] in the
// time period that service is in at that instant.
type DescriptorIDs struct {
	svcs  []*Service
	at    time.Time
	base  uint32     // the earliest period any service can be in at at
	slots [2]*idSlot // periods base and base+1
	// rollCut is the least PermID[0] whose service is in period base+1
	// at at (256 when none is).
	rollCut int
}

// Of returns both replica IDs of WithDescriptor()[i], in replica order:
// exactly onion.DescriptorIDs(WithDescriptor()[i].PermID, at).
func (v *DescriptorIDs) Of(i int) [onion.Replicas]onion.DescriptorID {
	return v.slots[onion.TimePeriod(v.svcs[i].PermID, v.at)-v.base].ids[i]
}

// DescriptorIDsAt returns the descriptor IDs of every WithDescriptor()
// service at instant at. A service's IDs change once per daily time
// period, so the population keeps them per period: the first reader of
// a period derives every service's IDs for it, sharded across
// Config.Workers, and every later reader — any network publishing this
// population, at any instant in that period — shares them. The cache
// keeps idCachePeriods periods and evicts the least recently read one
// first. Every entry is a pure function of the population and the
// period, so the cache never changes an output. Safe for concurrent use.
func (p *Population) DescriptorIDsAt(at time.Time) DescriptorIDs {
	// A service's rollover offset is under one day, so at lies in period
	// base or base+1 for every service (see onion.TimePeriod).
	base := uint32(uint64(at.Unix()) / 86400)
	v := DescriptorIDs{svcs: p.WithDescriptor(), at: at, base: base, rollCut: 256}
	for k := range v.slots {
		v.slots[k] = p.periodSlot(base + uint32(k))
	}
	// The period a service is in grows with its PermID[0].
	for r := 0; r < 256; r++ {
		if onion.TimePeriod(onion.PermanentID{byte(r)}, at) != base {
			v.rollCut = r
			break
		}
	}
	return v
}

// EachIn calls fn for every WithDescriptor() replica ID current at the
// view's instant (Of's IDs) that lies in the circular interval [lo, hi):
// from lo up to the top of the ID space and on from its bottom when
// lo >= hi, so lo == hi spans every ID. It reads each of the view's two
// periods' ID-sorted copies, found by two bucket lookups: a copy is
// built once per cached period, on first use, and shared read-only.
func (v *DescriptorIDs) EachIn(lo, hi onion.DescriptorID, fn func(*SortedID)) {
	wraps := bytes.Compare(lo[:], hi[:]) >= 0
	for k, sl := range v.slots {
		sl.sortedOnce.Do(func() { sl.sorted = sortIDs(sl.ids, v.svcs) })
		s := sl.sorted.ids
		a, b := sl.sorted.lowerBound(lo), sl.sorted.lowerBound(hi)
		if wraps {
			v.eachCurrent(k, s[a:], fn)
			a = 0
		}
		v.eachCurrent(k, s[a:b], fn)
	}
}

// eachCurrent calls fn for the entries of run, a run of period base+k's
// sorted copy, whose service is in that period at the view's instant.
func (v *DescriptorIDs) eachCurrent(k int, run []SortedID, fn func(*SortedID)) {
	for i := range run {
		if (int(run[i].roll) >= v.rollCut) == (k == 1) {
			fn(&run[i])
		}
	}
}

// sortedIDs is one period's ID-sorted copy. IDs are uniform SHA-1
// outputs, so a counting sort on their leading bits into about one
// bucket per entry leaves only tiny buckets to sort by comparison, and
// the bucket starts index the copy: starts[b] is the first entry whose
// leading bits (top) are b or more.
type sortedIDs struct {
	ids    []SortedID
	starts []int32 // one per bucket, and len(ids)
	shift  uint
}

func (c *sortedIDs) top(id *onion.DescriptorID) uint64 {
	return binary.BigEndian.Uint64(id[:8]) >> c.shift
}

// lowerBound returns the index of the first entry at or above id: a
// scan of id's bucket.
func (c *sortedIDs) lowerBound(id onion.DescriptorID) int {
	b := c.top(&id)
	i := int(c.starts[b])
	for i < int(c.starts[b+1]) && bytes.Compare(c.ids[i].ID[:], id[:]) < 0 {
		i++
	}
	return i
}

// sortIDs returns the sorted copy of ids, one period's IDs of svcs.
func sortIDs(ids [][onion.Replicas]onion.DescriptorID, svcs []*Service) sortedIDs {
	n := len(ids) * onion.Replicas
	c := sortedIDs{ids: make([]SortedID, n), shift: uint(64 - bits.Len(uint(n)))}
	c.starts = make([]int32, 1<<(64-c.shift)+1)
	for i := range ids {
		for r := range ids[i] {
			c.starts[c.top(&ids[i][r])]++
		}
	}
	for b := 1; b < len(c.starts); b++ {
		c.starts[b] += c.starts[b-1] // now the end of bucket b
	}
	for i := len(ids) - 1; i >= 0; i-- {
		for r := onion.Replicas - 1; r >= 0; r-- {
			b := c.top(&ids[i][r])
			c.starts[b]-- // ends at the start of bucket b
			c.ids[c.starts[b]] = SortedID{ID: ids[i][r], Svc: int32(i), Replica: uint8(r), roll: svcs[i].PermID[0]}
		}
	}
	for b := range len(c.starts) - 1 {
		if run := c.ids[c.starts[b]:c.starts[b+1]]; len(run) > 1 {
			slices.SortFunc(run, func(a, b SortedID) int { return bytes.Compare(a.ID[:], b.ID[:]) })
		}
	}
	return c
}

// DerivedDescriptorIDs reports how many descriptor IDs DescriptorIDsAt
// has derived over the population's lifetime: the number of period
// fills times len(WithDescriptor()) times onion.Replicas.
func (p *Population) DerivedDescriptorIDs() int {
	return int(p.ids.derived.Load())
}

// periodSlot returns the cache slot of period, with every
// WithDescriptor() service's IDs in it filled on first use.
func (p *Population) periodSlot(period uint32) *idSlot {
	c := &p.ids
	c.mu.Lock()
	c.clock++
	var sl *idSlot
	for _, s := range c.slots {
		if s.period == period {
			sl = s
			break
		}
	}
	if sl == nil {
		sl = &idSlot{period: period}
		if len(c.slots) < idCachePeriods {
			c.slots = append(c.slots, sl)
		} else {
			lru := 0
			for k, s := range c.slots {
				if s.used < c.slots[lru].used {
					lru = k
				}
			}
			c.slots[lru] = sl // a reader still holding the old slot keeps its IDs
		}
	}
	sl.used = c.clock
	c.mu.Unlock()
	sl.once.Do(func() {
		svcs := p.WithDescriptor()
		// A one-day table holds the period's two secret-id-parts.
		start := time.Unix(int64(period)*86400, 0)
		table := onion.NewSecretIDTable(start, start)
		ids := make([][onion.Replicas]onion.DescriptorID, len(svcs))
		parallel.Chunks(p.Config.Workers, len(svcs), func(_, lo, hi int) {
			for i := lo; i < hi; i++ {
				for r := range ids[i] {
					ids[i][r] = table.DescriptorIDForPeriod(svcs[i].PermID, period, uint8(r))
				}
			}
		})
		sl.ids = ids
		c.derived.Add(int64(len(svcs) * onion.Replicas))
	})
	return sl
}
