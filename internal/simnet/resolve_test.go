package simnet

import (
	"fmt"
	"math/rand"
	"testing"
	"time"

	"torhs/internal/hsdir"
	"torhs/internal/onion"
)

// TestPhantomTableMatchesNaiveOracle builds a window's phantom table on
// random rings and checks every entry against a naive per-ID resolution:
// Ring.ResponsibleLinear, each responsible fingerprint mapped to its ring
// position by a scan, and the observed bit from a scan of n.dirs. The
// rings include ones with fewer members than onion.SpreadPerReplica, the
// IDs include ones that share a fingerprint's high 64 bits, and every
// observed subset of observedSubsets is covered.
func TestPhantomTableMatchesNaiveOracle(t *testing.T) {
	rng := rand.New(rand.NewSource(61))
	for _, size := range []int{1, onion.SpreadPerReplica - 1, onion.SpreadPerReplica, 7, 300} {
		fps := make([]onion.Fingerprint, size)
		for i := range fps {
			fps[i] = onion.RandomFingerprint(rng)
		}
		ring := hsdir.NewRing(fps)
		ids := oracleIDs(rng, ring.Fingerprints(), 400)
		for name, observed := range observedSubsets(ring.Fingerprints(), int64(size)) {
			n := &Network{ring: ring, dirs: make([]*hsdir.Directory, ring.Len())}
			for _, fp := range observed {
				for i, r := range ring.Fingerprints() {
					if r == fp {
						n.dirs[i] = hsdir.NewDirectory(fp, time.Hour)
					}
				}
			}
			for _, workers := range []int{1, 3} {
				t.Run(fmt.Sprintf("ring=%d/observed=%s/workers=%d", size, name, workers), func(t *testing.T) {
					table := make(phantomTable, len(ids))
					for i, id := range ids {
						table[i].id = id
					}
					table.resolve(n, workers)
					for i, id := range ids {
						if got, want := table[i].set, naiveRespSet(n, id); got != want {
							t.Fatalf("phantom %d (%x): table %+v, oracle %+v", i, id[:10], got, want)
						}
					}
				})
			}
		}
	}
}

// oracleIDs returns k phantom IDs: uniform ones, the ring's own
// fingerprints, IDs that share a fingerprint's high 64 bits with random,
// all-zero or all-one low bytes, and the two ends of the ID space.
func oracleIDs(rng *rand.Rand, ring []onion.Fingerprint, k int) []onion.DescriptorID {
	var top onion.DescriptorID
	for i := range top {
		top[i] = 0xff
	}
	ids := []onion.DescriptorID{{}, top}
	for len(ids) < k {
		fp := ring[rng.Intn(len(ring))]
		id := onion.DescriptorID(onion.RandomFingerprint(rng))
		switch rng.Intn(5) {
		case 1:
			id = onion.DescriptorID(fp)
		case 2:
			copy(id[:8], fp[:8])
		case 3:
			id = onion.DescriptorID{}
			copy(id[:8], fp[:8])
		case 4:
			id = top
			copy(id[:8], fp[:8])
		}
		ids = append(ids, id)
	}
	return ids
}

// naiveRespSet resolves id the obvious way.
func naiveRespSet(n *Network, id onion.DescriptorID) respSet {
	var want respSet
	fps := n.ring.ResponsibleLinear(id, onion.SpreadPerReplica)
	want.n = uint8(len(fps))
	for k, fp := range fps {
		for i, r := range n.ring.Fingerprints() {
			if r == fp {
				want.pos[k] = int32(i)
			}
		}
		for _, d := range n.dirs {
			if d != nil && d.Fingerprint() == fp {
				want.observed = true
			}
		}
	}
	return want
}

// TestServiceMemoMatchesDirectResolution drives three services' requests
// across the first one's time-period boundary, from clients that include
// skewed clocks, once through one worker's service memo and once with a
// fresh memo per request: every record must be the same.
func TestServiceMemoMatchesDirectResolution(t *testing.T) {
	const seed = 67
	f := newRestrictFixture(t, seed)
	observed := observedSubsets(f.doc.Ring().Fingerprints(), seed)["tenth"]
	net := f.network(t, seed, 1, 0.3, observed)
	svcs := f.pop.PopularServices()[:3]
	start := nextPeriodStart(svcs[0].PermID, f.doc.ValidAfter).Add(-time.Hour)
	net.PublishAll(f.pop, start)
	net.warmGuardSets(start, start.Add(2*time.Hour))
	memoRNG, directRNG := rand.New(rand.NewSource(0)), rand.New(rand.NewSource(0))
	for _, skip := range []bool{false, true} {
		var sc fetchScratch
		for i := 0; i < 600; i++ {
			svc := svcs[i/200]
			at := start.Add(time.Duration(i%200) * 36 * time.Second)
			c := net.clients[i%len(net.clients)]
			memoRNG.Seed(int64(i))
			directRNG.Seed(int64(i))
			var direct fetchScratch
			got := net.fetchDescriptor(memoRNG, c, svc.PermID, at, &sc, skip)
			if want := net.fetchDescriptor(directRNG, c, svc.PermID, at, &direct, skip); got != want {
				t.Fatalf("skip=%v request %d: memo %+v, direct %+v", skip, i, got, want)
			}
		}
	}
}

// nextPeriodStart returns the first minute after t at which id's time
// period changes.
func nextPeriodStart(id onion.PermanentID, t time.Time) time.Time {
	for p := onion.TimePeriod(id, t); onion.TimePeriod(id, t) == p; {
		t = t.Add(time.Minute)
	}
	return t
}
