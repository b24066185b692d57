package hspop

import (
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
