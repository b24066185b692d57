package hspop

import (
	"bytes"
	"math/rand"
	"sync"
	"testing"
	"time"

	"torhs/internal/onion"
)

// TestDescriptorIDsAtMatchesDerivation checks the cache against direct
// derivation at instants spread over more periods than the cache holds,
// read by concurrent goroutines in different orders, so fills, hits and
// evictions all race (run under -race).
func TestDescriptorIDsAtMatchesDerivation(t *testing.T) {
	pop := testPop(t)
	svcs := pop.WithDescriptor()
	start := time.Date(2013, 2, 1, 0, 0, 0, 0, time.UTC)
	var instants []time.Time
	for h := 0; h < 24*(idCachePeriods+4); h += 7 {
		instants = append(instants, start.Add(time.Duration(h)*time.Hour))
	}
	var wg sync.WaitGroup
	for g := 0; g < 4; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for k := range instants {
				at := instants[(k*(g+1))%len(instants)]
				ids := pop.DescriptorIDsAt(at)
				for i := 0; i < len(svcs); i += 1 + g {
					if got, want := ids.Of(i), onion.DescriptorIDs(svcs[i].PermID, at); got != want {
						t.Errorf("service %d at %v: cached IDs %x, want %x", i, at, got, want)
						return
					}
				}
			}
		}(g)
	}
	wg.Wait()
	if len(pop.ids.slots) != idCachePeriods {
		t.Fatalf("cache holds %d periods, want %d", len(pop.ids.slots), idCachePeriods)
	}
}

// TestDescriptorIDsAtFillsEachPeriodOnce checks that repeated reads
// within one period derive nothing more, and that the count advances by
// one period's worth per newly reached period.
func TestDescriptorIDsAtFillsEachPeriodOnce(t *testing.T) {
	pop := testPop(t)
	perPeriod := len(pop.WithDescriptor()) * onion.Replicas
	day := time.Date(2013, 2, 1, 0, 0, 0, 0, time.UTC)
	for h := 0; h < 24; h += 2 {
		pop.DescriptorIDsAt(day.Add(time.Duration(h) * time.Hour))
	}
	if got := pop.DerivedDescriptorIDs(); got != 2*perPeriod {
		t.Fatalf("one day of reads derived %d IDs, want %d", got, 2*perPeriod)
	}
	pop.DescriptorIDsAt(day.Add(24 * time.Hour))
	if got := pop.DerivedDescriptorIDs(); got != 3*perPeriod {
		t.Fatalf("the next day derived %d IDs in all, want %d", got, 3*perPeriod)
	}
}

// TestWithDescriptorIsMemoized checks every call shares one slice, so
// DescriptorIDsAt's indexes mean the same services to every caller.
func TestWithDescriptorIsMemoized(t *testing.T) {
	pop := testPop(t)
	a, b := pop.WithDescriptor(), pop.WithDescriptor()
	if len(a) == 0 || &a[0] != &b[0] {
		t.Fatal("WithDescriptor returned distinct slices")
	}
}

// TestEachInMatchesScan checks EachIn against a scan of Of over every
// service: the same (service, replica, ID) entries, for intervals that
// wrap around the ID space, are empty, span it whole (lo == hi), or have
// ends equal to descriptor IDs, at instants before, inside and after
// the day's period rollovers.
func TestEachInMatchesScan(t *testing.T) {
	pop := testPop(t)
	svcs := pop.WithDescriptor()
	day := time.Date(2013, 2, 1, 0, 0, 0, 0, time.UTC)
	for _, at := range []time.Time{day.Add(time.Minute), day.Add(9 * time.Hour), day.Add(23*time.Hour + 59*time.Minute)} {
		ids := pop.DescriptorIDsAt(at)
		var cur []onion.DescriptorID
		for i := range svcs {
			r := ids.Of(i)
			cur = append(cur, r[:]...)
		}
		rng := rand.New(rand.NewSource(at.Unix()))
		ends := []onion.DescriptorID{{}, {0xff, 0xff}, cur[0], cur[1], cur[len(cur)-1]}
		for len(ends) < 40 {
			ends = append(ends, onion.DescriptorID(onion.RandomFingerprint(rng)))
		}
		for _, lo := range ends {
			for _, hi := range ends[:8] {
				got := map[[2]int32]onion.DescriptorID{}
				ids.EachIn(lo, hi, func(e *SortedID) {
					key := [2]int32{e.Svc, int32(e.Replica)}
					if _, dup := got[key]; dup {
						t.Fatalf("at %v, [%x, %x): entry %v twice", at, lo[:2], hi[:2], key)
					}
					got[key] = e.ID
				})
				wraps := bytes.Compare(lo[:], hi[:]) >= 0
				want := 0
				for i := range svcs {
					for r, id := range ids.Of(i) {
						above, below := bytes.Compare(id[:], lo[:]) >= 0, bytes.Compare(id[:], hi[:]) < 0
						if wraps && (above || below) || !wraps && above && below {
							want++
							if g, ok := got[[2]int32{int32(i), int32(r)}]; !ok || g != id {
								t.Fatalf("at %v, [%x, %x): service %d replica %d missing", at, lo[:2], hi[:2], i, r)
							}
						}
					}
				}
				if len(got) != want {
					t.Fatalf("at %v, [%x, %x): %d entries, want %d", at, lo[:2], hi[:2], len(got), want)
				}
			}
		}
	}
}
