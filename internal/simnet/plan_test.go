package simnet

import (
	"context"
	"encoding/binary"
	"hash/fnv"
	"reflect"
	"testing"
	"time"

	"torhs/internal/hspop"
	"torhs/internal/stats"
)

// appendPlanOracle is the plan draw before exact sizing: append as the
// Poisson counts come in. It is the reference drawPlan must match entry
// for entry and draw for draw.
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

// TestBuildPlanMatchesAppendOracle pins that laying the plan out from
// per-service counts drawn up front, as DriveWindow does, yields the
// append-grown plan entry for entry, leaves the network RNG where the
// oracle leaves it, and sizes a fresh buffer to exactly the plan.
func TestBuildPlanMatchesAppendOracle(t *testing.T) {
	f := newRestrictFixture(t, 53)
	a := f.network(t, 53, 1, 0, nil)
	b := f.network(t, 53, 1, 0, nil)
	svcs := f.pop.PopularServices()
	for w := 0; w < 3; w++ {
		want := appendPlanOracle(a, f.pop)
		counts := make([]int32, len(svcs))
		realTotal := 0
		for i, svc := range svcs {
			counts[i] = int32(stats.Poisson(b.rng, svc.ExpectedRequests))
			realTotal += int(counts[i])
		}
		buf := new([]planEntry)
		got := buildPlan(buf, svcs, counts, phantomRequests(f.pop, realTotal))
		if len(got) == 0 || !reflect.DeepEqual(got, want) {
			t.Fatalf("window %d: plan of %d entries, oracle %d", w, len(got), len(want))
		}
		if cap(*buf) != len(got) {
			t.Fatalf("window %d: plan capacity %d for %d entries", w, cap(*buf), len(got))
		}
		if x, y := a.rng.Int63(), b.rng.Int63(); x != y {
			t.Fatalf("window %d: RNG streams diverged", w)
		}
	}
}

// TestDriveWindowGolden pins one driven window — its stats, a digest of
// its full event stream (which fixes every planned request) and the
// network RNG state it leaves — to the values the append-grown plan
// produced.
func TestDriveWindowGolden(t *testing.T) {
	cases := []struct {
		fail    float64
		stats   TrafficStats
		digest  uint64
		nextRNG int64
	}{
		{0, TrafficStats{TotalRequests: 591800, PhantomRequests: 473440, ResolvedHits: 102918}, 0xa688f8a43f2fbe0e, 3799598708457923893},
		{0.3, TrafficStats{TotalRequests: 591800, PhantomRequests: 473440, ResolvedHits: 100184}, 0xd83651ef25d10446, 3799598708457923893},
	}
	for _, tc := range cases {
		net, pop, now := buildNetwork(t, 5)
		net.dirFailure = tc.fail
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
			binary.LittleEndian.PutUint64(b[:], uint64(ev.Attempts))
			h.Write(b[:])
		})
		if err != nil {
			t.Fatal(err)
		}
		if st != tc.stats {
			t.Fatalf("fail=%v: stats %+v, want %+v", tc.fail, st, tc.stats)
		}
		if got := h.Sum64(); got != tc.digest {
			t.Fatalf("fail=%v: event digest %#x, want %#x", tc.fail, got, tc.digest)
		}
		if got := net.rng.Int63(); got != tc.nextRNG {
			t.Fatalf("fail=%v: network RNG left at %d, want %d", tc.fail, got, tc.nextRNG)
		}
	}
}
