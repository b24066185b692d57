package simnet

import (
	"context"
	"encoding/binary"
	"hash/fnv"
	"reflect"
	"testing"
	"time"

	"torhs/internal/hspop"
	"torhs/internal/onion"
	"torhs/internal/stats"
)

// planEntry is one request of a laid-out plan: a phantom, or a request
// for the service with permanent ID permID.
type planEntry struct {
	permID  onion.PermanentID
	phantom bool
}

// appendPlanOracle is the plan draw before exact sizing: append as the
// Poisson counts come in. It is the reference the offsets walk must
// match entry for entry and draw for draw.
func appendPlanOracle(n *Network, pop *hspop.Population) []planEntry {
	var plan []planEntry
	realTotal := 0
	for _, svc := range pop.PopularServices() {
		c := stats.Poisson(n.rng, svc.ExpectedRequests)
		for k := 0; k < c; k++ {
			plan = append(plan, planEntry{permID: svc.PermID})
		}
		realTotal += c
	}
	phantomTotal := 0
	if frac := pop.Config.PhantomRequestFraction; frac > 0 {
		phantomTotal = int(float64(realTotal) * frac / (1 - frac))
	}
	for k := 0; k < phantomTotal; k++ {
		plan = append(plan, planEntry{phantom: true})
	}
	return plan
}

// drawOffsets draws one window's plan offsets as DriveWindow's first
// phase does and returns them with the plan's length.
func drawOffsets(n *Network, pop *hspop.Population) ([]int32, int) {
	svcs := pop.PopularServices()
	offs := make([]int32, len(svcs)+1)
	for i, svc := range svcs {
		offs[i+1] = offs[i] + int32(stats.Poisson(n.rng, svc.ExpectedRequests))
	}
	realTotal := int(offs[len(svcs)])
	return offs, realTotal + phantomRequests(pop, realTotal)
}

// walkPlan lays out the plan a cursor seeked to index lo yields from lo
// to the end, as a shard starting at lo walks it.
func walkPlan(svcs []*hspop.Service, offs []int32, lo, total int) []planEntry {
	cur := seekPlan(offs, lo)
	var out []planEntry
	for i := lo; i < total; i++ {
		if s := cur.service(i); s < 0 {
			out = append(out, planEntry{phantom: true})
		} else {
			out = append(out, planEntry{permID: svcs[s].PermID})
		}
	}
	return out
}

// smallPopulation is a population of a few popular services whose low
// rates make many Poisson counts zero, between nonzero ones and at the
// end, at the given phantom fraction.
func smallPopulation(frac float64) *hspop.Population {
	rates := []float64{4, 2.5, 0.6, 0.6, 0.4, 0.4, 0.3, 0.2, 0.1, 0.05}
	pop := &hspop.Population{Config: hspop.Config{PhantomRequestFraction: frac}}
	for i, r := range rates {
		svc := &hspop.Service{Seq: i, ExpectedRequests: r}
		svc.PermID[0] = byte(i + 1)
		pop.Services = append(pop.Services, svc)
	}
	return pop
}

// TestPlanWalkMatchesAppendOracle pins that walking a window's plan from
// its prefix offsets, as every DriveWindow shard does, yields the
// append-grown plan's (phantom?, permID) at every plan index, from a
// shard start at every index, and that drawing the offsets leaves the
// network RNG where the oracle leaves it. The small plans cover
// zero-count services between and after nonzero ones, and a plan with
// no phantoms.
func TestPlanWalkMatchesAppendOracle(t *testing.T) {
	f := newRestrictFixture(t, 53)
	for _, tc := range []struct {
		name    string
		pop     *hspop.Population
		small   bool
		windows int
	}{
		{"fixture", f.pop, false, 3},
		{"small", smallPopulation(0.5), true, 40},
		{"small-no-phantoms", smallPopulation(0), true, 40},
	} {
		t.Run(tc.name, func(t *testing.T) {
			a := f.network(t, 53, 1, nil)
			b := f.network(t, 53, 1, nil)
			svcs := tc.pop.PopularServices()
			zeroBetween, zeroLast, phantoms := false, false, false
			for w := 0; w < tc.windows; w++ {
				want := appendPlanOracle(a, tc.pop)
				offs, total := drawOffsets(b, tc.pop)
				if total != len(want) {
					t.Fatalf("window %d: plan of %d entries, oracle %d", w, total, len(want))
				}
				if got := walkPlan(svcs, offs, 0, total); !reflect.DeepEqual(got, want) {
					t.Fatalf("window %d: walk from 0 diverged from the oracle", w)
				}
				for lo := 0; lo < total; lo++ {
					if tc.small {
						if got := walkPlan(svcs, offs, lo, total); !reflect.DeepEqual(got, want[lo:]) {
							t.Fatalf("window %d: walk from %d diverged from the oracle", w, lo)
						}
					} else if got := walkPlan(svcs, offs, lo, lo+1); got[0] != want[lo] {
						t.Fatalf("window %d: seek to %d yields %+v, oracle %+v", w, lo, got[0], want[lo])
					}
				}
				if x, y := a.rng.Int63(), b.rng.Int63(); x != y {
					t.Fatalf("window %d: RNG streams diverged", w)
				}
				for s := range svcs {
					if offs[s+1] == offs[s] {
						if offs[s+1] < offs[len(svcs)] {
							zeroBetween = true
						} else {
							zeroLast = true
						}
					}
				}
				phantoms = phantoms || total > int(offs[len(svcs)])
			}
			if tc.small && !(zeroBetween && zeroLast) {
				t.Fatalf("no zero-count service between (%v) or after (%v) nonzero ones", zeroBetween, zeroLast)
			}
			if wantPhantoms := tc.pop.Config.PhantomRequestFraction > 0; phantoms != wantPhantoms {
				t.Fatalf("plans had phantoms %v, want %v", phantoms, wantPhantoms)
			}
		})
	}
}

// TestDriveWindowGolden pins one driven window — its stats, a digest of
// its full event stream (which fixes every planned request) and the
// network RNG state it leaves — to the values the append-grown plan
// produced. Each event's hash ends with the number of directories the
// request contacted, which is always one.
func TestDriveWindowGolden(t *testing.T) {
	const (
		digest  = 0xa688f8a43f2fbe0e
		nextRNG = 3799598708457923893
	)
	stats := TrafficStats{TotalRequests: 591800, PhantomRequests: 473440, ResolvedHits: 102918}
	net, pop, now := buildNetwork(t, 5)
	net.PublishAll(pop, now)
	h := fnv.New64a()
	var b [8]byte
	st, err := net.DriveWindow(context.Background(), pop, now.Add(time.Hour), 2*time.Hour, func(ev FetchEvent) {
		binary.LittleEndian.PutUint64(b[:], uint64(ev.Client.ID))
		h.Write(b[:])
		h.Write(ev.Guard[:])
		h.Write(ev.Dir[:])
		h.Write(ev.DescID[:])
		binary.LittleEndian.PutUint64(b[:], uint64(ev.At.UnixNano()))
		h.Write(b[:])
		if ev.Found {
			h.Write([]byte{1})
		} else {
			h.Write([]byte{0})
		}
		binary.LittleEndian.PutUint64(b[:], uint64(1))
		h.Write(b[:])
	})
	if err != nil {
		t.Fatal(err)
	}
	if st != stats {
		t.Fatalf("stats %+v, want %+v", st, stats)
	}
	if got := h.Sum64(); got != digest {
		t.Fatalf("event digest %#x, want %#x", got, uint64(digest))
	}
	if got := net.rng.Int63(); got != nextRNG {
		t.Fatalf("network RNG left at %d, want %d", got, int64(nextRNG))
	}
}
