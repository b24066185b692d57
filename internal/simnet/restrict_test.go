package simnet

import (
	"context"
	"fmt"
	"math/rand"
	"reflect"
	"testing"
	"time"

	"torhs/internal/consensus"
	"torhs/internal/geo"
	"torhs/internal/hsdir"
	"torhs/internal/hspop"
	"torhs/internal/onion"
	"torhs/internal/relaynet"
)

// restrictFixture is the shared substrate of the restriction tests: one
// consensus, one geo database and one small, quiet population.
type restrictFixture struct {
	doc *consensus.Document
	db  *geo.DB
	pop *hspop.Population
}

func newRestrictFixture(t *testing.T, seed int64) restrictFixture {
	t.Helper()
	fleet := relaynet.DefaultFleetConfig(seed)
	fleet.Days = 1
	sim, err := relaynet.NewSim(fleet)
	if err != nil {
		t.Fatal(err)
	}
	h, err := sim.Run(nil)
	if err != nil {
		t.Fatal(err)
	}
	db, err := geo.NewDB(geo.DefaultBotnetMix())
	if err != nil {
		t.Fatal(err)
	}
	popCfg := hspop.TestConfig(seed)
	popCfg.Scale = 0.005
	pop, err := hspop.Generate(context.Background(), popCfg)
	if err != nil {
		t.Fatal(err)
	}
	// A tenth of the request rates keeps the test matrix fast; every
	// popular service stays popular, in the same order.
	for _, svc := range pop.Services {
		svc.ExpectedRequests /= 10
	}
	return restrictFixture{doc: h.All()[0], db: db, pop: pop}
}

// network builds a 200-client network over the fixture. With compact,
// every directory it holds folds requests into counts on arrival, as
// the trawl's attacker directories do.
func (f restrictFixture) network(t *testing.T, seed int64, workers int, fail float64, compact bool, observed []onion.Fingerprint) *Network {
	t.Helper()
	cfg := DefaultConfig(seed)
	cfg.Clients = 200
	cfg.Workers = workers
	cfg.DirFailureProb = fail
	cfg.Observed = observed
	net, err := NewNetwork(f.doc, f.db, cfg)
	if err != nil {
		t.Fatal(err)
	}
	if compact {
		for _, d := range net.Directories() {
			if d != nil {
				d.Log().Compact()
			}
		}
	}
	return net
}

// run publishes every descriptor at the consensus's start and drives two
// consecutive windows of length window from there, returning the summed
// stats.
func (f restrictFixture) run(t *testing.T, net *Network, window time.Duration) TrafficStats {
	return f.runAt(t, net, f.doc.ValidAfter, window)
}

// runAt is run from instant now.
func (f restrictFixture) runAt(t *testing.T, net *Network, now time.Time, window time.Duration) TrafficStats {
	t.Helper()
	net.PublishAll(f.pop, now)
	var sum TrafficStats
	for w := 0; w < 2; w++ {
		st, err := net.DriveWindow(context.Background(), f.pop, now.Add(time.Duration(w)*window), window, nil)
		if err != nil {
			t.Fatal(err)
		}
		sum.TotalRequests += st.TotalRequests
		sum.PhantomRequests += st.PhantomRequests
		sum.ResolvedHits += st.ResolvedHits
	}
	return sum
}

// dirState is everything a reader can observe of one directory, in the
// order its visitors deliver it.
type dirState struct {
	descs     []onion.Descriptor
	published []onion.DescriptorID
	requested []onion.DescriptorID
	requests  []hsdir.Request
	counts    map[onion.DescriptorID]int
	total     int
	found     int
}

func stateOf(d *hsdir.Directory) dirState {
	var s dirState
	d.Each(func(desc *onion.Descriptor) { s.descs = append(s.descs, *desc) })
	d.EachPublishedID(func(id onion.DescriptorID) { s.published = append(s.published, id) })
	d.EachRequestedPublishedID(func(id onion.DescriptorID) { s.requested = append(s.requested, id) })
	if d.Log().Compacted() {
		s.counts, s.total, s.found = d.Log().CompactState()
	} else {
		s.requests = d.Log().Requests()
	}
	return s
}

// diffDir reports the first difference between two directory states.
func diffDir(a, b dirState) string {
	switch {
	case !reflect.DeepEqual(a.descs, b.descs):
		return fmt.Sprintf("stores differ (%d vs %d descriptors)", len(a.descs), len(b.descs))
	case !reflect.DeepEqual(a.published, b.published):
		return "published-ID sequences differ"
	case !reflect.DeepEqual(a.requested, b.requested):
		return "requested-published-ID sequences differ"
	case !reflect.DeepEqual(a.requests, b.requests):
		return fmt.Sprintf("request logs differ (%d vs %d records)", len(a.requests), len(b.requests))
	case !reflect.DeepEqual(a.counts, b.counts) || a.total != b.total || a.found != b.found:
		return fmt.Sprintf("compact logs differ (total %d vs %d, found %d vs %d)", a.total, b.total, a.found, b.found)
	}
	return ""
}

// observedSubsets draws the observed sets the oracle test restricts to:
// none, one directory, about a tenth of the ring (plus one fingerprint
// that is not on it), and the whole ring.
func observedSubsets(ring []onion.Fingerprint, seed int64) map[string][]onion.Fingerprint {
	rng := rand.New(rand.NewSource(seed))
	perm := rng.Perm(len(ring))
	pick := func(k int) []onion.Fingerprint {
		out := make([]onion.Fingerprint, 0, k+1)
		for _, i := range perm[:k] {
			out = append(out, ring[i])
		}
		return out
	}
	return map[string][]onion.Fingerprint{
		"none":  pick(0),
		"one":   pick(1),
		"tenth": append(pick(len(ring)/10), onion.RandomFingerprint(rng)),
		"all":   pick(len(ring)),
	}
}

// TestRestrictedNetworkMatchesFullOracle pins Config.Observed against the
// unrestricted network as its oracle: from the same document, seed and
// population, every observed directory of a restricted network ends with
// the same store, the same requested-ID bitset and the same request log,
// and the request totals are unchanged, across failure rates, worker
// counts and log modes.
func TestRestrictedNetworkMatchesFullOracle(t *testing.T) {
	const seed = 31
	f := newRestrictFixture(t, seed)
	ring := f.doc.Ring().Fingerprints()
	subsets := observedSubsets(ring, seed)
	for _, fail := range []float64{0, 0.3} {
		for _, workers := range []int{1, 2, 8} {
			for _, compact := range []bool{false, true} {
				full := f.network(t, seed, workers, fail, compact, nil)
				fullStats := f.run(t, full, 2*time.Hour)
				if fullStats.TotalRequests == 0 {
					t.Fatal("no traffic driven")
				}
				for name, observed := range subsets {
					t.Run(fmt.Sprintf("fail=%v/workers=%d/compact=%v/observed=%s", fail, workers, compact, name), func(t *testing.T) {
						net := f.network(t, seed, workers, fail, compact, observed)
						st := f.run(t, net, 2*time.Hour)
						checkRestricted(t, full, net, ring, observed, fullStats, st)
					})
				}
			}
		}
	}
}

// TestRestrictedNetworkAcrossTimePeriod drives windows that cross a
// popular service's time-period boundary, so its requests switch to the
// next period's descriptor IDs mid-window: the service memo must follow,
// and every observed directory must still match the full-ring oracle.
func TestRestrictedNetworkAcrossTimePeriod(t *testing.T) {
	const seed = 53
	f := newRestrictFixture(t, seed)
	ring := f.doc.Ring().Fingerprints()
	svc := f.pop.PopularServices()[0]
	start := nextPeriodStart(svc.PermID, f.doc.ValidAfter).Add(-time.Hour)
	const window = 2 * time.Hour
	if onion.TimePeriod(svc.PermID, start) == onion.TimePeriod(svc.PermID, start.Add(window)) {
		t.Fatal("the first window does not cross a time period")
	}
	for _, workers := range []int{1, 2} {
		full := f.network(t, seed, workers, 0.3, false, nil)
		fullStats := f.runAt(t, full, start, window)
		for name, observed := range observedSubsets(ring, seed) {
			t.Run(fmt.Sprintf("workers=%d/observed=%s", workers, name), func(t *testing.T) {
				net := f.network(t, seed, workers, 0.3, false, observed)
				checkRestricted(t, full, net, ring, observed, fullStats, f.runAt(t, net, start, window))
			})
		}
	}
}

// TestRestrictedNetworkLongWindow covers windows of a guard lifetime or
// more, where guards may rotate mid-window: the restricted network then
// keeps every request's draws, and its observed directories still match.
func TestRestrictedNetworkLongWindow(t *testing.T) {
	const seed = 37
	f := newRestrictFixture(t, seed)
	ring := f.doc.Ring().Fingerprints()
	observed := observedSubsets(ring, seed)["tenth"]
	full := f.network(t, seed, 2, 0.3, false, nil)
	fullStats := f.run(t, full, 3*minGuardLifetime)
	net := f.network(t, seed, 2, 0.3, false, observed)
	checkRestricted(t, full, net, ring, observed, fullStats, f.run(t, net, 3*minGuardLifetime))
}

func checkRestricted(t *testing.T, full, net *Network, ring, observed []onion.Fingerprint, fullStats, st TrafficStats) {
	t.Helper()
	if st.TotalRequests != fullStats.TotalRequests || st.PhantomRequests != fullStats.PhantomRequests {
		t.Fatalf("request totals %+v, oracle %+v", st, fullStats)
	}
	if st.ResolvedHits > fullStats.ResolvedHits {
		t.Fatalf("restricted network resolved %d hits, oracle only %d", st.ResolvedHits, fullStats.ResolvedHits)
	}
	if len(observed) >= len(ring) && st.ResolvedHits != fullStats.ResolvedHits {
		t.Fatalf("all-observed network resolved %d hits, oracle %d", st.ResolvedHits, fullStats.ResolvedHits)
	}
	isObserved := make(map[onion.Fingerprint]bool, len(observed))
	for _, fp := range observed {
		isObserved[fp] = true
	}
	for _, fp := range ring {
		d, ok := net.Directory(fp)
		if !isObserved[fp] {
			if ok {
				t.Fatalf("unobserved directory %x has a store", fp[:4])
			}
			continue
		}
		if !ok {
			t.Fatalf("observed directory %x has no store", fp[:4])
		}
		ref, _ := full.Directory(fp)
		if diff := diffDir(stateOf(ref), stateOf(d)); diff != "" {
			t.Fatalf("observed directory %x: %s", fp[:4], diff)
		}
	}
}

// TestRestrictedSharedRNGFetchesKeepEveryDraw pins that FetchDescriptor
// and FetchRawID draw exactly as on an unrestricted network: both
// networks leave their shared RNG in the same state and report the same
// guards, directories and attempts.
func TestRestrictedSharedRNGFetchesKeepEveryDraw(t *testing.T) {
	const seed = 41
	f := newRestrictFixture(t, seed)
	observed := observedSubsets(f.doc.Ring().Fingerprints(), seed)["tenth"]
	full := f.network(t, seed, 1, 0.3, false, nil)
	net := f.network(t, seed, 1, 0.3, false, observed)
	now := f.doc.ValidAfter
	full.PublishAll(f.pop, now)
	net.PublishAll(f.pop, now)
	svcs := f.pop.WithDescriptor()
	for i := 0; i < 200; i++ {
		at := now.Add(time.Duration(i) * time.Second)
		var a, b FetchEvent
		if i%2 == 0 {
			svc := svcs[i%len(svcs)]
			a = full.FetchDescriptor(full.Clients()[i%len(full.Clients())], svc.PermID, at)
			b = net.FetchDescriptor(net.Clients()[i%len(net.Clients())], svc.PermID, at)
		} else {
			id := onion.DescriptorID(onion.RandomFingerprint(rand.New(rand.NewSource(int64(i)))))
			a = full.FetchRawID(full.Clients()[i%len(full.Clients())], id, at)
			b = net.FetchRawID(net.Clients()[i%len(net.Clients())], id, at)
		}
		if a.Guard != b.Guard || a.Dir != b.Dir || a.DescID != b.DescID || a.Attempts != b.Attempts {
			t.Fatalf("fetch %d differs:\n%+v\nvs\n%+v", i, a, b)
		}
		if _, ok := net.Directory(b.Dir); ok && a.Found != b.Found {
			t.Fatalf("fetch %d answered by an observed directory: found %v, oracle %v", i, b.Found, a.Found)
		}
	}
	if x, y := full.rng.Int63(), net.rng.Int63(); x != y {
		t.Fatalf("shared RNG diverged: %d vs %d", x, y)
	}
	for _, fp := range observed {
		d, ok := net.Directory(fp)
		if !ok {
			continue // the off-ring fingerprint
		}
		ref, _ := full.Directory(fp)
		if diff := diffDir(stateOf(ref), stateOf(d)); diff != "" {
			t.Fatalf("observed directory %x: %s", fp[:4], diff)
		}
	}
}

// TestRestrictedNetworkRejectsObservers pins that a restricted network
// refuses the taps it cannot serve.
func TestRestrictedNetworkRejectsObservers(t *testing.T) {
	f := newRestrictFixture(t, 43)
	net := f.network(t, 43, 1, 0, false, []onion.Fingerprint{})
	now := f.doc.ValidAfter
	if _, err := net.DriveWindow(context.Background(), f.pop, now, time.Hour, func(FetchEvent) {}); err == nil {
		t.Fatal("restricted network accepted a fetch observer")
	}
	defer func() {
		if recover() == nil {
			t.Fatal("restricted network accepted an upload observer")
		}
	}()
	net.OnUpload(func(UploadEvent) {})
}

// TestFetchPathsDoNotAllocate pins the hot path's zero-allocation
// contract on a restricted network, for skipped and probed requests, on
// both fetch paths of a driven window: a phantom request (a table draw,
// then fetchResolved) and a service request (fetchDescriptor and its
// memo).
func TestFetchPathsDoNotAllocate(t *testing.T) {
	f := newRestrictFixture(t, 47)
	observed := observedSubsets(f.doc.Ring().Fingerprints(), 47)["tenth"]
	net := f.network(t, 47, 1, 0.3, false, observed)
	now := f.doc.ValidAfter
	net.PublishAll(f.pop, now)
	net.warmGuardSets(now, now.Add(time.Hour))
	rng := rand.New(rand.NewSource(1))
	phantoms := make(phantomTable, 64)
	for i := range phantoms {
		phantoms[i].id = onion.DescriptorID(onion.RandomFingerprint(rng))
	}
	phantoms.resolve(net, 1)
	svcs := f.pop.PopularServices()
	for _, skip := range []bool{false, true} {
		var sc fetchScratch
		i := 0
		paths := []struct {
			name  string
			fetch func() fetchRec
		}{
			{"phantom", func() fetchRec {
				p := phantoms.draw(rng)
				return net.fetchResolved(rng, net.clients[i%len(net.clients)], p.id, &p.set, now, skip)
			}},
			// Eight requests per service, as a plan groups them.
			{"service", func() fetchRec {
				return net.fetchDescriptor(rng, net.clients[i%len(net.clients)], svcs[i/8%len(svcs)].PermID, now, &sc, skip)
			}},
		}
		for _, p := range paths {
			skipped, probed := 0, 0
			if avg := testing.AllocsPerRun(500, func() {
				if rec := p.fetch(); rec.attempts == 0 {
					skipped++
				} else {
					probed++
				}
				i++
			}); avg != 0 {
				t.Fatalf("%s fetch (skip=%v) allocates %.1f times per call", p.name, skip, avg)
			}
			if probed == 0 || skip && skipped == 0 {
				t.Fatalf("%s fetch (skip=%v): %d skipped, %d probed; want both kinds", p.name, skip, skipped, probed)
			}
		}
	}
}
