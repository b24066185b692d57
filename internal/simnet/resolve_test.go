package simnet

import (
	"context"
	"fmt"
	"math/rand"
	"reflect"
	"testing"
	"time"

	"torhs/internal/hsdir"
	"torhs/internal/hspop"
	"torhs/internal/onion"
	"torhs/internal/parallel"
	"torhs/internal/stats"
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
						n.dirs[i] = hsdir.NewDirectory(time.Hour)
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
				want.observed = want.observed || n.dirs[i] != nil
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
	net := f.network(t, seed, 1, observed)
	svcs := f.pop.PopularServices()[:3]
	start := nextPeriodStart(svcs[0].PermID, f.doc.ValidAfter).Add(-time.Hour)
	net.PublishAll(f.pop, start)
	net.warmGuardSets(start, start.Add(2*time.Hour))
	var sc fetchScratch
	for i := 0; i < 600; i++ {
		svc := svcs[i/200]
		at := start.Add(time.Duration(i%200) * 36 * time.Second)
		c := &net.clients[i%len(net.clients)]
		memo, fresh := parallel.StreamAt(int64(i)), parallel.StreamAt(int64(i))
		var direct fetchScratch
		got := fetchService(net, &memo, c, svc.PermID, at, &sc)
		if want := fetchService(net, &fresh, c, svc.PermID, at, &direct); got != want {
			t.Fatalf("request %d: memo %+v, direct %+v", i, got, want)
		}
	}
}

// TestServiceMemoLookupMatchesDirect feeds one service memo runs of
// requests, each for one service, over random time periods, replicas and
// services — runs of up to a dozen distinct periods, so eviction runs —
// with and without a secret table: every (ID, set) pair it returns must
// equal DescriptorIDForPeriod plus a naive resolution.
func TestServiceMemoLookupMatchesDirect(t *testing.T) {
	const seed = 71
	f := newRestrictFixture(t, seed)
	observed := observedSubsets(f.doc.Ring().Fingerprints(), seed)["tenth"]
	net := f.network(t, seed, 1, observed)
	svcs := f.pop.PopularServices()[:4]
	start := f.doc.ValidAfter
	rng := rand.New(rand.NewSource(seed))
	for _, secrets := range []bool{false, true} {
		if secrets {
			net.ensureSecrets(start, start.Add(2*time.Hour))
		}
		var sc fetchScratch
		evictions := 0
		for run := 0; run < 60; run++ {
			svc := svcs[rng.Intn(len(svcs))]
			base := onion.TimePeriod(svc.PermID, start) - 6
			for k := 1 + rng.Intn(200); k > 0; k-- {
				period, replica := base+uint32(rng.Intn(12)), uint8(rng.Intn(onion.Replicas))
				if sc.misses >= memoPeriods && sc.permID == svc.PermID {
					evictions++ // a full memo for this service: a miss must evict
				}
				id, set := sc.lookup(net, svc.PermID, period, replica)
				if want := onion.DescriptorIDForPeriod(svc.PermID, period, replica); id != want {
					t.Fatalf("secrets=%v run %d: memo ID %x, direct %x", secrets, run, id[:4], want[:4])
				}
				if want := naiveRespSet(net, id); *set != want {
					t.Fatalf("secrets=%v run %d: memo set %+v, naive %+v", secrets, run, *set, want)
				}
			}
		}
		if evictions == 0 {
			t.Fatalf("secrets=%v: no lookup ran against a full memo", secrets)
		}
	}
}

// referenceFetch is fetchResolved the obvious way, on a math/rand RNG:
// the client's guard pick (rotation included), then math/rand's own Perm
// for the contact order, whose first directory takes the request.
func referenceFetch(net *Network, rng *rand.Rand, c *Client, id onion.DescriptorID, set *respSet, now time.Time) fetchRec {
	rec := fetchRec{descID: id, atNanos: now.UnixNano(), clientID: int32(c.ID)}
	rec.guard = c.gs.pickPool(&net.pool, rng, now)
	rec.dir = set.pos[rng.Perm(int(set.n))[0]]
	if d := net.dirs[rec.dir]; d != nil {
		_, rec.found = d.Probe(id, now)
		rec.observed = true
	}
	return rec
}

// referenceWindow replays a driven window the slow, obvious way on net:
// it draws the plan exactly as DriveWindow does, then runs every request
// in plan order with no fast path — no stream, cut table, dead buckets,
// phantom table, service memo or skip: each request draws from its own
// math/rand RNG and fetches with referenceFetch, each phantom index
// comes from powIndex, and each ID is derived without the secret table
// and resolved afresh. It returns the stats and the counts the observed
// directories' answers add to a restricted network's log.
func referenceWindow(net *Network, pop *hspop.Population, start time.Time, window time.Duration) (TrafficStats, logState) {
	svcs := pop.PopularServices()
	var plan []int // service index per real request, then -1 per phantom
	for s, svc := range svcs {
		for k := stats.Poisson(net.rng, svc.ExpectedRequests); k > 0; k-- {
			plan = append(plan, s)
		}
	}
	for k := phantomRequests(pop, len(plan)); k > 0; k-- {
		plan = append(plan, -1)
	}
	ids := make([]onion.DescriptorID, pop.Config.ScaledPhantomIDs())
	for i := range ids {
		ids[i] = onion.DescriptorID(onion.RandomFingerprint(net.rng))
	}
	planSeed := net.rng.Int63()
	end := start.Add(window)
	net.warmGuardSets(start, end)
	net.ensureSecrets(start, end)

	var st TrafficStats
	log := logState{counts: make(map[onion.DescriptorID]int)}
	for i, s := range plan {
		rng := parallel.NewRNG(parallel.SeedFor(planSeed, int64(i)))
		at := start.Add(time.Duration(rng.Int63n(int64(window))))
		c := &net.clients[rng.Intn(len(net.clients))]
		var id onion.DescriptorID
		if s < 0 {
			id = ids[powIndex(len(ids), rng.Float64())]
			st.PhantomRequests++
		} else {
			perm := svcs[s].PermID
			replica := uint8(rng.Intn(onion.Replicas))
			id = onion.DescriptorIDForPeriod(perm, onion.TimePeriod(perm, c.LocalTime(at)), replica)
		}
		set := net.resolve(id) // itself checked against naiveRespSet above
		rec := referenceFetch(net, rng, c, id, &set, at)
		st.TotalRequests++
		if rec.found {
			st.ResolvedHits++
		}
		if rec.observed {
			log.counts[id]++
			log.total++
			if rec.found {
				log.found++
			}
		}
	}
	return st, log
}

// TestFetchResolvedMatchesReference pins fetchResolved's stream draws
// against referenceFetch on a math/rand RNG of the same seed, request by
// request, for clients whose guards are fresh, expired (a mid-fetch
// rotation, as in windows of a guard lifetime or more) or never drawn.
// Each pair must agree on the record and leave its source at the same
// position, and a fetch that leaves the guard unread (gs nil) must make
// the same draws and differ only in the guard.
func TestFetchResolvedMatchesReference(t *testing.T) {
	const seed = 79
	f := newRestrictFixture(t, seed)
	observed := observedSubsets(f.doc.Ring().Fingerprints(), seed)["half"]
	// The subtest name states the model: uniform guards, no directory
	// failures.
	t.Run("weighted=false/fail=0", func(t *testing.T) {
		net := f.network(t, seed, 0, observed)
		now := f.doc.ValidAfter
		net.PublishAll(f.pop, now)
		net.warmGuardSets(now, now.Add(time.Hour))
		svcs := f.pop.WithDescriptor()
		rotated, found := 0, 0
		for i := 0; i < 600; i++ {
			at := now.Add(time.Duration(i) * time.Minute)
			if i%3 == 2 {
				at = at.Add(90 * 24 * time.Hour) // every guard has expired
			}
			c := &net.clients[i%len(net.clients)]
			if i%7 == 0 {
				c.gs = guardSet{} // never drawn
			}
			id := svcs[i%len(svcs)].PermID
			ids := onion.DescriptorIDs(id, at)
			set := net.resolve(ids[i%onion.Replicas])

			ref := *c
			rng := parallel.NewRNG(int64(i))
			want := referenceFetch(net, rng, &ref, ids[i%onion.Replicas], &set, at)
			unread := parallel.StreamAt(int64(i))
			blind := net.fetchResolved(&unread, nil, ids[i%onion.Replicas], &set, at)
			before := c.gs
			draws := parallel.StreamAt(int64(i))
			got := fetchAs(net, &draws, c, ids[i%onion.Replicas], &set, at)
			if got != want || c.gs != ref.gs {
				t.Fatalf("request %d: stream fetch %+v, reference %+v", i, got, want)
			}
			pos := draws
			if a, b := draws.Int63(), rng.Int63(); a != b {
				t.Fatalf("request %d: the stream goes on with %d, the reference RNG with %d", i, a, b)
			}
			if c.gs != before {
				rotated++
				continue // the rotation's draws came before the unread guard's
			}
			blind.guard, blind.clientID = got.guard, got.clientID
			if blind != got || unread != pos {
				t.Fatalf("request %d: guard-unread fetch %+v, %+v", i, blind, got)
			}
			if got.found {
				found++
			}
		}
		if rotated == 0 || found == 0 {
			t.Fatalf("%d rotations, %d hits; want both", rotated, found)
		}
	})
}

// TestRestrictedWindowMatchesReferenceLoop drives restricted windows —
// which skip unobserved requests, most phantoms at their dead-bucket
// test — at workers 1, 2 and 8, and replays each on a twin network with
// referenceWindow: the stats and the log counts must be identical, for
// several observed subsets, over two consecutive windows. The fail=0
// segment of each subtest name states that no directory fails.
func TestRestrictedWindowMatchesReferenceLoop(t *testing.T) {
	const seed = 73
	f := newRestrictFixture(t, seed)
	subsets := observedSubsets(f.doc.Ring().Fingerprints(), seed)
	for _, name := range []string{"none", "tenth", "half"} {
		for _, workers := range []int{1, 2, 8} {
			t.Run(fmt.Sprintf("observed=%s/fail=0/workers=%d", name, workers), func(t *testing.T) {
				net := f.network(t, seed, workers, subsets[name])
				ref := f.network(t, seed, workers, subsets[name])
				now := f.doc.ValidAfter
				net.PublishAll(f.pop, now)
				ref.PublishAll(f.pop, now)
				want := logState{counts: make(map[onion.DescriptorID]int)}
				for w := 0; w < 2; w++ {
					at := now.Add(time.Duration(w) * time.Hour)
					got, err := net.DriveWindow(context.Background(), f.pop, at, time.Hour, nil)
					if err != nil {
						t.Fatal(err)
					}
					refStats, refLog := referenceWindow(ref, f.pop, at, time.Hour)
					if got != refStats {
						t.Fatalf("window %d: stats %+v, reference %+v", w, got, refStats)
					}
					for id, k := range refLog.counts {
						want.counts[id] += k
					}
					want.total += refLog.total
					want.found += refLog.found
				}
				if got := logStateOf(net.Log()); !reflect.DeepEqual(got, want) {
					t.Fatalf("log counts %d requests (%d found) over %d IDs, reference %d (%d) over %d",
						got.total, got.found, len(got.counts), want.total, want.found, len(want.counts))
				}
				if name != "none" && want.total == 0 {
					t.Fatal("no request reached an observed directory")
				}
			})
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
