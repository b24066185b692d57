package hspop

import (
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

// idSlot is one time period of the cache, filled exactly once.
type idSlot struct {
	period uint32
	used   uint64 // idCache.clock at the last read
	once   sync.Once
	ids    [][onion.Replicas]onion.DescriptorID
}

// DescriptorIDs is a view of the population's descriptor IDs at one
// instant: Of(i) returns both replica IDs of WithDescriptor()[i] in the
// time period that service is in at that instant.
type DescriptorIDs struct {
	svcs    []*Service
	at      time.Time
	base    uint32 // the earliest period any service can be in at at
	periods [2][][onion.Replicas]onion.DescriptorID
}

// Of returns both replica IDs of WithDescriptor()[i], in replica order:
// exactly onion.DescriptorIDs(WithDescriptor()[i].PermID, at).
func (v *DescriptorIDs) Of(i int) [onion.Replicas]onion.DescriptorID {
	return v.periods[onion.TimePeriod(v.svcs[i].PermID, v.at)-v.base][i]
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
	v := DescriptorIDs{svcs: p.WithDescriptor(), at: at, base: base}
	for k := range v.periods {
		v.periods[k] = p.periodIDs(base + uint32(k))
	}
	return v
}

// DerivedDescriptorIDs reports how many descriptor IDs DescriptorIDsAt
// has derived over the population's lifetime: the number of period
// fills times len(WithDescriptor()) times onion.Replicas.
func (p *Population) DerivedDescriptorIDs() int {
	return int(p.ids.derived.Load())
}

// periodIDs returns every WithDescriptor() service's IDs in period,
// filling the period's slot on first use.
func (p *Population) periodIDs(period uint32) [][onion.Replicas]onion.DescriptorID {
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
	return sl.ids
}
