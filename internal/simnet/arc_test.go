package simnet

import (
	"bytes"
	"fmt"
	"math/rand"
	"reflect"
	"slices"
	"strings"
	"testing"
	"time"

	"torhs/internal/geo"
	"torhs/internal/hsdir"
	"torhs/internal/hspop"
	"torhs/internal/onion"
)

// arcNetwork builds a network over the ring fps that observes the ring
// positions observe marks, without NewNetwork: placement needs no guards,
// clients or minimum ring size, so rings down to SpreadPerReplica members
// can be tested. A restricted network keeps a log and builds no hosts.
func arcNetwork(db *geo.DB, fps []onion.Fingerprint, observe func(pos, size int) bool, restricted bool, workers int, seed int64) *Network {
	n := &Network{rng: rand.New(rand.NewSource(seed)), ring: hsdir.NewRing(fps), geoDB: db, workers: workers}
	n.ringFPs = n.ring.Fingerprints()
	n.dirs = make([]*hsdir.Directory, len(n.ringFPs))
	for i := range n.ringFPs {
		if observe(i, len(n.ringFPs)) {
			n.dirs[i] = hsdir.NewDirectory(24 * time.Hour)
		}
	}
	if restricted {
		n.log = hsdir.NewRequestLog()
	} else {
		n.hosts = make(map[onion.Address]*Host)
	}
	return n
}

// oracleSweep publishes every service one at a time through
// publishService, with IDs derived directly rather than read from the
// population's cache: the sweep every placement must reproduce.
func oracleSweep(n *Network, pop *hspop.Population, now time.Time) {
	var sc publishScratch
	for _, svc := range pop.WithDescriptor() {
		n.publishService(svc, n.ensureHost(svc), onion.DescriptorIDs(svc.PermID, now), now, &sc)
	}
}

// arcRings builds the rings the arc test covers from the sorted current
// descriptor IDs cur: SpreadPerReplica and SpreadPerReplica+1 members,
// 50 members, and the paper-scale network's size. Every ring holds
// fingerprints equal to descriptor IDs, and IDs lie below its first and
// at or above its last fingerprint.
func arcRings(cur []onion.DescriptorID, consensus []onion.Fingerprint) map[string][]onion.Fingerprint {
	spread := func(k int) []onion.Fingerprint {
		out := make([]onion.Fingerprint, 0, k)
		for j := 0; j < k-1; j++ {
			out = append(out, onion.Fingerprint(cur[len(cur)/10+j*len(cur)*8/10/(k-1)]))
		}
		return append(out, onion.Fingerprint(cur[len(cur)-2])) // the top ID lies above it
	}
	return map[string][]onion.Fingerprint{
		fmt.Sprint(onion.SpreadPerReplica):     spread(onion.SpreadPerReplica),
		fmt.Sprint(onion.SpreadPerReplica + 1): spread(onion.SpreadPerReplica + 1),
		"50":                                   spread(50),
		"paper-scale":                          paperScaleRing(consensus, cur[len(cur)/2]),
	}
}

// paperScaleRing tops the consensus ring up with random fingerprints to
// the 1,400 relays of the paper-scale network, one of them equal to id.
func paperScaleRing(consensus []onion.Fingerprint, id onion.DescriptorID) []onion.Fingerprint {
	rng := rand.New(rand.NewSource(1400))
	out := append(slices.Clone(consensus), onion.Fingerprint(id))
	for len(out) < 1400 {
		out = append(out, onion.RandomFingerprint(rng))
	}
	return out
}

// TestArcPlacementMatchesPerServiceOracle pins PublishAll's arc placement
// against a service-by-service publishService sweep on the same ring:
// after each of several sweeps, every observed directory holds the same
// descriptors in the same Each order, and two directories share a
// Descriptor pointer exactly where the oracle's do. Rings run from
// SpreadPerReplica members to the paper-scale network's 1,400, each with fingerprints
// equal to descriptor IDs and IDs beyond both ends; networks are
// restricted (observing every third position and the last, or the first
// and the last) or unrestricted, at 1, 2 and 8 workers; the sweeps run at the
// first minute of a day (every service in one period), the consensus's
// start, and the first minute of a service's next period.
func TestArcPlacementMatchesPerServiceOracle(t *testing.T) {
	const seed = 67
	f := newRestrictFixture(t, seed)
	start := f.doc.ValidAfter
	svc := f.pop.WithDescriptor()[0]
	instants := []time.Time{start.Truncate(24 * time.Hour).Add(time.Minute), start, nextPeriodStart(svc.PermID, start)}
	slices.SortFunc(instants, time.Time.Compare)

	var cur []onion.DescriptorID
	for _, s := range f.pop.WithDescriptor() {
		ids := onion.DescriptorIDs(s.PermID, start)
		cur = append(cur, ids[:]...)
	}
	slices.SortFunc(cur, func(a, b onion.DescriptorID) int { return bytes.Compare(a[:], b[:]) })

	modes := []struct {
		name       string
		restricted bool
		observe    func(pos, size int) bool
	}{
		{"unrestricted", false, func(int, int) bool { return true }},
		{"every-third", true, func(pos, size int) bool { return pos%3 == 0 || pos == size-1 }},
		{"ends", true, func(pos, size int) bool { return pos == 0 || pos == size-1 }},
	}
	for ringName, fps := range arcRings(cur, f.doc.Ring().Fingerprints()) {
		t.Run("ring="+ringName, func(t *testing.T) {
			oracle := arcNetwork(f.db, fps, modes[0].observe, false, 1, seed)
			nets := make(map[string]*Network)
			for _, m := range modes {
				for _, workers := range []int{1, 2, 8} {
					nets[fmt.Sprintf("%s/workers=%d", m.name, workers)] = arcNetwork(f.db, fps, m.observe, m.restricted, workers, seed)
				}
			}
			for _, at := range instants {
				oracleSweep(oracle, f.pop, at)
				for name, net := range nets {
					if got := net.PublishAll(f.pop, at); got != len(f.pop.WithDescriptor()) {
						t.Fatalf("%s at %v: published %d services, want %d", name, at, got, len(f.pop.WithDescriptor()))
					}
					stored, diff := diffPlacement(net, oracle)
					if diff != "" {
						t.Fatalf("%s at %v: %s", name, at, diff)
					}
					if stored == 0 && !strings.HasPrefix(name, "ends") {
						t.Fatalf("%s at %v: no observed directory stores anything", name, at)
					}
				}
			}
		})
	}
}

// diffPlacement compares net's observed directories with the same ring
// positions of oracle: the descriptors each Each visits, in order, and
// which of them are one pointer, numbered in ring-then-Each order. It
// also returns how many descriptors net's directories store.
func diffPlacement(net, oracle *Network) (int, string) {
	gotIdx, wantIdx := map[*onion.Descriptor]int{}, map[*onion.Descriptor]int{}
	stored := 0
	for pos, d := range net.dirs {
		if d == nil {
			continue
		}
		var got, want []*onion.Descriptor
		d.Each(func(desc *onion.Descriptor) { got = append(got, desc) })
		oracle.dirs[pos].Each(func(desc *onion.Descriptor) { want = append(want, desc) })
		if len(got) != len(want) {
			return 0, fmt.Sprintf("position %d stores %d descriptors, oracle %d", pos, len(got), len(want))
		}
		for k := range got {
			if !reflect.DeepEqual(*got[k], *want[k]) {
				return 0, fmt.Sprintf("position %d, descriptor %d: %+v, oracle %+v", pos, k, *got[k], *want[k])
			}
			g, ok := gotIdx[got[k]]
			if !ok {
				g = len(gotIdx)
				gotIdx[got[k]] = g
			}
			w, ok := wantIdx[want[k]]
			if !ok {
				w = len(wantIdx)
				wantIdx[want[k]] = w
			}
			if g != w {
				return 0, fmt.Sprintf("position %d, descriptor %d: pointer sharing differs from the oracle's", pos, k)
			}
		}
		stored += len(got)
	}
	return stored, ""
}
