package simnet

import (
	"context"
	"fmt"
	"math/rand"
	"reflect"
	"runtime/debug"
	"testing"
	"time"

	"torhs/internal/consensus"
	"torhs/internal/geo"
	"torhs/internal/hsdir"
	"torhs/internal/hspop"
	"torhs/internal/onion"
	"torhs/internal/parallel"
	"torhs/internal/race"
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

// network builds a 200-client network over the fixture.
func (f restrictFixture) network(t *testing.T, seed int64, workers int, observed []onion.Fingerprint) *Network {
	t.Helper()
	cfg := DefaultConfig(seed)
	cfg.Clients = 200
	cfg.Workers = workers
	cfg.Observed = observed
	net, err := NewNetwork(f.doc, f.db, cfg)
	if err != nil {
		t.Fatal(err)
	}
	return net
}

// run publishes every descriptor at the consensus's start and drives two
// consecutive windows of length window from there, returning the summed
// stats. observer (nil on a restricted network) sees every fetch.
func (f restrictFixture) run(t *testing.T, net *Network, window time.Duration, observer func(FetchEvent)) TrafficStats {
	return f.runAt(t, net, f.doc.ValidAfter, window, observer)
}

// runAt is run from instant now.
func (f restrictFixture) runAt(t *testing.T, net *Network, now time.Time, window time.Duration, observer func(FetchEvent)) TrafficStats {
	t.Helper()
	net.PublishAll(f.pop, now)
	var sum TrafficStats
	for w := 0; w < 2; w++ {
		st, err := net.DriveWindow(context.Background(), f.pop, now.Add(time.Duration(w)*window), window, observer)
		if err != nil {
			t.Fatal(err)
		}
		sum.TotalRequests += st.TotalRequests
		sum.PhantomRequests += st.PhantomRequests
		sum.ResolvedHits += st.ResolvedHits
	}
	return sum
}

// dirState is everything a reader can observe of one directory's
// store, in the order its visitors deliver it. The descriptors' DescIDs
// are the directory's published-ever IDs.
type dirState struct {
	descs     []onion.Descriptor
	requested []onion.DescriptorID
}

func stateOf(d *hsdir.Directory) dirState {
	var s dirState
	d.Each(func(desc *onion.Descriptor) { s.descs = append(s.descs, *desc) })
	d.EachRequestedPublishedID(func(id onion.DescriptorID) { s.requested = append(s.requested, id) })
	return s
}

// diffDir reports the first difference between two directory states.
func diffDir(a, b dirState) string {
	switch {
	case !reflect.DeepEqual(a.descs, b.descs):
		return fmt.Sprintf("stores differ (%d vs %d descriptors)", len(a.descs), len(b.descs))
	case !reflect.DeepEqual(a.requested, b.requested):
		return "requested-published-ID sequences differ"
	}
	return ""
}

// logOracle folds the fetch events of an unrestricted network into what
// a restricted network's log must count and its observer must see. An
// event names the directory that answered it, so the oracle counts, per
// descriptor ID, the events at observed directories, and keeps those
// events themselves, in order: exactly the stream a restricted network's
// observer must see.
type logOracle struct {
	observed     map[onion.Fingerprint]bool
	counts       map[onion.DescriptorID]int
	total, found int
	events       []eventRow
}

// eventRow is one fetch event by value, its client's state at the event
// included (guard set and all), so that events of two networks compare
// field for field.
type eventRow struct {
	FetchEvent
	client Client
}

func rowOf(ev FetchEvent) eventRow {
	r := eventRow{FetchEvent: ev, client: *ev.Client}
	r.Client = nil
	return r
}

// eventRecorder returns an observer that appends every event it sees
// to *rows.
func eventRecorder(rows *[]eventRow) func(FetchEvent) {
	return func(ev FetchEvent) { *rows = append(*rows, rowOf(ev)) }
}

// checkEvents compares a restricted network's observed event stream
// with the oracle's, field for field and in order.
func (o *logOracle) checkEvents(t *testing.T, got []eventRow) {
	t.Helper()
	for i := range min(len(got), len(o.events)) {
		if !reflect.DeepEqual(got[i], o.events[i]) {
			t.Fatalf("observed event %d of %d:\n%+v\nunrestricted network's:\n%+v", i, len(o.events), got[i], o.events[i])
		}
	}
	if len(got) != len(o.events) {
		t.Fatalf("observer saw %d events, unrestricted network %d at observed directories", len(got), len(o.events))
	}
}

func newLogOracle(observed []onion.Fingerprint) *logOracle {
	o := &logOracle{
		observed: make(map[onion.Fingerprint]bool, len(observed)),
		counts:   make(map[onion.DescriptorID]int),
	}
	for _, fp := range observed {
		o.observed[fp] = true
	}
	return o
}

func (o *logOracle) add(ev FetchEvent) {
	if !o.observed[ev.Dir] {
		return
	}
	o.events = append(o.events, rowOf(ev))
	o.counts[ev.DescID]++
	o.total++
	if ev.Found {
		o.found++
	}
}

// check compares a restricted network's log with the oracle: the found
// count, the total and the per-ID counts, exactly.
func (o *logOracle) check(t *testing.T, log *hsdir.RequestLog) {
	t.Helper()
	counts, total, found := log.CompactState()
	if found != o.found {
		t.Fatalf("log counts %d found requests, oracle %d", found, o.found)
	}
	if total != o.total || !reflect.DeepEqual(counts, o.counts) {
		t.Fatalf("log counts %d requests over %d IDs, oracle %d over %d", total, len(counts), o.total, len(o.counts))
	}
}

// logState is a log's full state, for comparing logs with each other.
type logState struct {
	counts       map[onion.DescriptorID]int
	total, found int
}

func logStateOf(l *hsdir.RequestLog) logState {
	var s logState
	s.counts, s.total, s.found = l.CompactState()
	return s
}

// observedSubsets draws the observed sets the oracle test restricts to:
// none, one directory, about a tenth of the ring (plus one fingerprint
// that is not on it), half the ring, and the whole ring.
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
		"half":  pick(len(ring) / 2),
		"all":   pick(len(ring)),
	}
}

// TestRestrictedNetworkMatchesFullOracle pins Config.Observed against the
// unrestricted network as its oracle: from the same document, seed and
// population, every observed directory of a restricted network ends with
// the same store and the same requested-ID bitset, the request totals
// are unchanged, and the network's log counts what the unrestricted
// network's event stream says its observed directories answered, across
// worker counts. The log is also identical at every worker count. A
// restricted network with an observer tapped in passes the same checks,
// and its observer sees exactly the unrestricted network's events whose
// Dir is observed, field for field and in order. The fail=0 segment of
// each subtest name states that no directory fails.
func TestRestrictedNetworkMatchesFullOracle(t *testing.T) {
	const seed = 31
	f := newRestrictFixture(t, seed)
	ring := f.doc.Ring().Fingerprints()
	subsets := observedSubsets(ring, seed)
	workerCounts := []int{1, 2, 8}
	logs := make(map[string][]logState, len(subsets)) // per subset, per worker count
	for _, workers := range workerCounts {
		full := f.network(t, seed, workers, nil)
		oracles := make(map[string]*logOracle, len(subsets))
		for name, observed := range subsets {
			oracles[name] = newLogOracle(observed)
		}
		fullStats := f.run(t, full, 2*time.Hour, func(ev FetchEvent) {
			for _, o := range oracles {
				o.add(ev)
			}
		})
		if fullStats.TotalRequests == 0 {
			t.Fatal("no traffic driven")
		}
		for name, observed := range subsets {
			t.Run(fmt.Sprintf("fail=0/workers=%d/observed=%s", workers, name), func(t *testing.T) {
				net := f.network(t, seed, workers, observed)
				st := f.run(t, net, 2*time.Hour, nil)
				checkRestricted(t, full, net, ring, observed, fullStats, st, oracles[name])
				logs[name] = append(logs[name], logStateOf(net.Log()))

				tapped := f.network(t, seed, workers, observed)
				var rows []eventRow
				st = f.run(t, tapped, 2*time.Hour, eventRecorder(&rows))
				checkRestricted(t, full, tapped, ring, observed, fullStats, st, oracles[name])
				oracles[name].checkEvents(t, rows)
			})
		}
	}
	for name := range subsets {
		t.Run(fmt.Sprintf("fail=0/observed=%s/workers-agree", name), func(t *testing.T) {
			got := logs[name]
			if len(got) != len(workerCounts) {
				t.Fatalf("%d of %d worker counts left a log", len(got), len(workerCounts))
			}
			for i := 1; i < len(got); i++ {
				if !reflect.DeepEqual(got[i], got[0]) {
					t.Fatalf("log at workers=%d differs from workers=%d: total %d vs %d",
						workerCounts[i], workerCounts[0], got[i].total, got[0].total)
				}
			}
		})
	}
}

// TestRestrictedNetworkAcrossTimePeriod drives windows that cross a
// popular service's time-period boundary, so its requests switch to the
// next period's descriptor IDs mid-window: the service memo must follow,
// every observed directory must still match the full-ring oracle, and an
// observer must still see exactly the full ring's observed events.
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
	subsets := observedSubsets(ring, seed)
	for _, workers := range []int{1, 2} {
		full := f.network(t, seed, workers, nil)
		oracles := make(map[string]*logOracle, len(subsets))
		for name, observed := range subsets {
			oracles[name] = newLogOracle(observed)
		}
		fullStats := f.runAt(t, full, start, window, func(ev FetchEvent) {
			for _, o := range oracles {
				o.add(ev)
			}
		})
		for name, observed := range subsets {
			t.Run(fmt.Sprintf("workers=%d/observed=%s", workers, name), func(t *testing.T) {
				net := f.network(t, seed, workers, observed)
				st := f.runAt(t, net, start, window, nil)
				checkRestricted(t, full, net, ring, observed, fullStats, st, oracles[name])

				tapped := f.network(t, seed, workers, observed)
				var rows []eventRow
				st = f.runAt(t, tapped, start, window, eventRecorder(&rows))
				checkRestricted(t, full, tapped, ring, observed, fullStats, st, oracles[name])
				oracles[name].checkEvents(t, rows)
			})
		}
	}
}

// TestRestrictedNetworkLongWindow covers windows of a guard lifetime or
// more, where guards may rotate mid-window: the restricted network then
// keeps every request's draws, its observed directories still match, and
// an observer still sees exactly the full ring's observed events, for
// every subset. The fail=0 segment of each subtest name states that no
// directory fails.
func TestRestrictedNetworkLongWindow(t *testing.T) {
	const seed = 37
	f := newRestrictFixture(t, seed)
	ring := f.doc.Ring().Fingerprints()
	subsets := observedSubsets(ring, seed)
	full := f.network(t, seed, 2, nil)
	oracles := make(map[string]*logOracle, len(subsets))
	for name, observed := range subsets {
		oracles[name] = newLogOracle(observed)
	}
	fullStats := f.run(t, full, 3*minGuardLifetime, func(ev FetchEvent) {
		for _, o := range oracles {
			o.add(ev)
		}
	})
	for name, observed := range subsets {
		t.Run("fail=0/observed="+name, func(t *testing.T) {
			net := f.network(t, seed, 2, observed)
			st := f.run(t, net, 3*minGuardLifetime, nil)
			checkRestricted(t, full, net, ring, observed, fullStats, st, oracles[name])

			tapped := f.network(t, seed, 2, observed)
			var rows []eventRow
			st = f.run(t, tapped, 3*minGuardLifetime, eventRecorder(&rows))
			checkRestricted(t, full, tapped, ring, observed, fullStats, st, oracles[name])
			oracles[name].checkEvents(t, rows)
		})
	}
}

// checkRestricted compares a restricted network with the unrestricted
// one as its oracle: the request totals, every observed directory's
// store, and the network's log against the oracle folded from the
// unrestricted network's events.
func checkRestricted(t *testing.T, full, net *Network, ring, observed []onion.Fingerprint, fullStats, st TrafficStats, oracle *logOracle) {
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
	if full.Log() != nil {
		t.Fatal("unrestricted network keeps a request log")
	}
	if _, _, found := net.Log().CompactState(); found != st.ResolvedHits {
		t.Fatalf("log counts %d found requests, stats %d resolved hits", found, st.ResolvedHits)
	}
	oracle.check(t, net.Log())
	for _, fp := range ring {
		d, ok := net.Directory(fp)
		if !oracle.observed[fp] {
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

// TestRestrictedSharedRNGFetchesKeepEveryDraw pins that a fetch on a
// restricted network draws exactly as on an unrestricted one: from one
// stream position, both report the same guards and directories and
// leave their streams at the same position, and an observed directory
// answers as the unrestricted network's does. The subtest name states
// that no directory fails.
func TestRestrictedSharedRNGFetchesKeepEveryDraw(t *testing.T) {
	const seed = 41
	f := newRestrictFixture(t, seed)
	observed := observedSubsets(f.doc.Ring().Fingerprints(), seed)["tenth"]
	t.Run("fail=0", func(t *testing.T) {
		full := f.network(t, seed, 1, nil)
		net := f.network(t, seed, 1, observed)
		now := f.doc.ValidAfter
		full.PublishAll(f.pop, now)
		net.PublishAll(f.pop, now)
		full.warmGuardSets(now, now.Add(time.Hour))
		net.warmGuardSets(now, now.Add(time.Hour))
		svcs := f.pop.WithDescriptor()
		drawsA, drawsB := parallel.StreamAt(seed), parallel.StreamAt(seed)
		var scA, scB fetchScratch
		answered, found := 0, 0
		for i := 0; i < 200; i++ {
			at := now.Add(time.Duration(i) * time.Second)
			ca, cb := &full.clients[i%len(full.clients)], &net.clients[i%len(net.clients)]
			var a, b fetchRec
			if i%2 == 0 {
				svc := svcs[i%len(svcs)]
				a = fetchService(full, &drawsA, ca, svc.PermID, at, &scA)
				b = fetchService(net, &drawsB, cb, svc.PermID, at, &scB)
			} else {
				id := onion.DescriptorID(onion.RandomFingerprint(rand.New(rand.NewSource(int64(i)))))
				setA, setB := full.resolve(id), net.resolve(id)
				a = fetchAs(full, &drawsA, ca, id, &setA, at)
				b = fetchAs(net, &drawsB, cb, id, &setB, at)
			}
			if a.guard != b.guard || a.dir != b.dir || a.descID != b.descID {
				t.Fatalf("fetch %d differs:\n%+v\nvs\n%+v", i, a, b)
			}
			if b.observed {
				answered++
				if b.found {
					found++
				}
				if a.found != b.found {
					t.Fatalf("fetch %d answered by an observed directory: found %v, unrestricted %v", i, b.found, a.found)
				}
			}
			if drawsA != drawsB {
				t.Fatalf("fetch %d left the streams apart: %+v vs %+v", i, drawsA, drawsB)
			}
		}
		if found == 0 || answered == found {
			t.Fatalf("observed directories answered %d fetches, %d found; want hits and misses", answered, found)
		}
	})
}

// TestRestrictedNetworkRejectsObservers pins that a restricted network
// refuses upload observers, which it cannot serve, and PublishService:
// it builds no hosts. (It takes fetch observers; the oracle tests above
// check what they see.)
func TestRestrictedNetworkRejectsObservers(t *testing.T) {
	f := newRestrictFixture(t, 43)
	net := f.network(t, 43, 1, []onion.Fingerprint{})
	now := f.doc.ValidAfter
	net.PublishAll(f.pop, now)
	svc := f.pop.WithDescriptor()[0]
	for name, call := range map[string]func(){
		"an upload observer": func() { net.OnUpload(func(UploadEvent) {}) },
		"PublishService":     func() { net.PublishService(svc, now) },
	} {
		func() {
			defer func() {
				if recover() == nil {
					t.Fatalf("restricted network accepted %s", name)
				}
			}()
			call()
		}()
	}
}

// TestRestrictedPublishAllocations pins a restricted PublishAll's
// allocations: a repeat sweep allocates as often over a population four
// times the size, so it makes no per-host or per-service allocation.
func TestRestrictedPublishAllocations(t *testing.T) {
	if race.Enabled {
		t.Skip("allocation counts of the pooled sweep vary under -race")
	}
	const seed = 71
	f := newRestrictFixture(t, seed)
	cfg := f.pop.Config
	cfg.Scale *= 4
	big, err := hspop.Generate(context.Background(), cfg)
	if err != nil {
		t.Fatal(err)
	}
	if n, m := len(f.pop.WithDescriptor()), len(big.WithDescriptor()); m < 3*n {
		t.Fatalf("populations of %d and %d services", n, m)
	}
	observed := observedSubsets(f.doc.Ring().Fingerprints(), seed)["tenth"]
	now := f.doc.ValidAfter
	var allocs []float64
	for _, pop := range []*hspop.Population{f.pop, big} {
		net := f.network(t, seed, 1, observed)
		allocs = append(allocs, testing.AllocsPerRun(20, func() { net.PublishAll(pop, now) }))
	}
	// The descriptors take one allocation; the rest are the sweep's
	// closures and its view of the ID cache.
	if allocs[0] != allocs[1] || allocs[0] > 10 {
		t.Fatalf("a restricted sweep allocates %v times over N services and %v over 4N; want equal, at most 10", allocs[0], allocs[1])
	}
}

// TestFirstRestrictedPublishAllocations pins a fresh restricted
// network's first PublishAll: each observed directory reserves its
// exact store once, so the sweep allocates as often over a population
// four times the size instead of growing every store one doubling at a
// time.
func TestFirstRestrictedPublishAllocations(t *testing.T) {
	if race.Enabled {
		t.Skip("allocation counts of the pooled sweep vary under -race")
	}
	const seed = 73
	f := newRestrictFixture(t, seed)
	// Populations large enough that every observed directory stores
	// some descriptor at both sizes.
	var pops []*hspop.Population
	for _, scale := range []float64{0.1, 0.4} {
		cfg := f.pop.Config
		cfg.Scale = scale
		pop, err := hspop.Generate(context.Background(), cfg)
		if err != nil {
			t.Fatal(err)
		}
		pops = append(pops, pop)
	}
	observed := observedSubsets(f.doc.Ring().Fingerprints(), seed)["tenth"]
	now := f.doc.ValidAfter
	// A collection would empty the sweep's buffer pools mid-measurement.
	defer debug.SetGCPercent(debug.SetGCPercent(-1))
	const runs = 5
	var allocs []float64
	for _, pop := range pops {
		// AllocsPerRun makes one warm-up call before its runs.
		nets := make([]*Network, runs+1)
		for i := range nets {
			nets[i] = f.network(t, seed, 1, observed)
		}
		i := 0
		allocs = append(allocs, testing.AllocsPerRun(runs, func() {
			nets[i].PublishAll(pop, now)
			i++
		}))
		for _, net := range nets {
			for _, d := range net.dirs {
				if d != nil && d.PublishedEver() == 0 {
					t.Fatal("an observed directory stores nothing; the sweep would not reserve it")
				}
			}
		}
	}
	if allocs[0] != allocs[1] {
		t.Fatalf("a fresh restricted sweep allocates %v times over N services and %v over 4N; want equal", allocs[0], allocs[1])
	}
}

// TestNetworkLogOnlyWhenRestricted pins which networks keep a request
// log: an unrestricted network none, through driven windows, and a
// restricted network always, even when it observes no directory (its log
// then stays empty).
func TestNetworkLogOnlyWhenRestricted(t *testing.T) {
	const seed = 59
	f := newRestrictFixture(t, seed)
	for name, observed := range map[string][]onion.Fingerprint{"unrestricted": nil, "none": {}} {
		net := f.network(t, seed, 1, observed)
		f.run(t, net, time.Hour, nil)
		switch l := net.Log(); {
		case observed == nil && l != nil:
			t.Fatalf("%s network keeps a log of %d requests", name, l.Total())
		case observed != nil && l == nil:
			t.Fatalf("%s network keeps no log", name)
		case observed != nil && l.Total() != 0:
			t.Fatalf("%s network logged %d requests at no directory", name, l.Total())
		}
	}
}

// TestCancelledWindowLeavesLogUnchanged: a window cancelled before its
// fetch fan-out counts nothing, and replaying it counts exactly what a
// never-cancelled window does.
func TestCancelledWindowLeavesLogUnchanged(t *testing.T) {
	const seed = 61
	f := newRestrictFixture(t, seed)
	observed := observedSubsets(f.doc.Ring().Fingerprints(), seed)["tenth"]
	now := f.doc.ValidAfter
	net, ref := f.network(t, seed, 2, observed), f.network(t, seed, 2, observed)
	net.PublishAll(f.pop, now)
	ref.PublishAll(f.pop, now)
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	if _, err := net.DriveWindow(ctx, f.pop, now, time.Hour, nil); err == nil {
		t.Fatal("cancelled window returned no error")
	}
	if n := net.Log().Total(); n != 0 {
		t.Fatalf("cancelled window counted %d requests", n)
	}
	for _, n := range []*Network{net, ref} {
		if _, err := n.DriveWindow(context.Background(), f.pop, now, time.Hour, nil); err != nil {
			t.Fatal(err)
		}
	}
	if got, want := logStateOf(net.Log()), logStateOf(ref.Log()); want.total == 0 || !reflect.DeepEqual(got, want) {
		t.Fatalf("replayed window counted %d requests, never-cancelled window %d", got.total, want.total)
	}
}

// TestResolveDoesNotAllocate pins the responsible-set lookup a driven
// window makes for every phantom ID and every service-memo miss, for
// IDs that observed directories store and IDs that none does.
func TestResolveDoesNotAllocate(t *testing.T) {
	f := newRestrictFixture(t, 47)
	net := f.network(t, 47, 1, observedSubsets(f.doc.Ring().Fingerprints(), 47)["tenth"])
	rng := rand.New(rand.NewSource(2))
	ids := make([]onion.DescriptorID, 64)
	for i := range ids {
		ids[i] = onion.DescriptorID(onion.RandomFingerprint(rng))
	}
	i, observed := 0, 0
	if avg := testing.AllocsPerRun(len(ids), func() {
		if net.resolve(ids[i%len(ids)]).observed {
			observed++
		}
		i++
	}); avg != 0 {
		t.Fatalf("resolve allocates %.1f times per call", avg)
	}
	if observed == 0 || observed == i {
		t.Fatalf("%d of %d IDs stored by an observed directory; want both kinds", observed, i)
	}
}

// TestFetchPathsDoNotAllocate pins the hot path's zero-allocation
// contract on a restricted network, for requests observed and unobserved
// directories answer, on the fetch paths of a driven window: a phantom
// request (a table draw, then fetchResolved) with its guard read or
// left unread, and a service request (the service memo, then
// fetchResolved). Every fetch reads a stream on the stack, as a window's
// request does: the stream must not move to the heap.
func TestFetchPathsDoNotAllocate(t *testing.T) {
	f := newRestrictFixture(t, 47)
	observed := observedSubsets(f.doc.Ring().Fingerprints(), 47)["tenth"]
	net := f.network(t, 47, 1, observed)
	now := f.doc.ValidAfter
	net.PublishAll(f.pop, now)
	net.warmGuardSets(now, now.Add(time.Hour))
	rng := rand.New(rand.NewSource(1))
	phantoms := make(phantomTable, 64)
	for i := range phantoms {
		phantoms[i].id = onion.DescriptorID(onion.RandomFingerprint(rng))
	}
	phantoms.resolve(net, 1)
	ps := phantomSampler{table: phantoms, cuts: cutsFor(len(phantoms))}
	svcs := f.pop.PopularServices()
	var sc fetchScratch
	i := 0
	paths := []struct {
		name  string
		fetch func() fetchRec
	}{
		{"phantom", func() fetchRec {
			p := ps.pick(rng.Float64())
			draws := parallel.StreamAt(int64(i))
			return fetchAs(net, &draws, &net.clients[i%len(net.clients)], p.id, &p.set, now)
		}},
		{"phantom, guard unread", func() fetchRec {
			p := ps.pick(rng.Float64())
			draws := parallel.StreamAt(int64(i))
			return net.fetchResolved(&draws, nil, p.id, &p.set, now)
		}},
		// Eight requests per service, as a plan groups them.
		{"service", func() fetchRec {
			draws := parallel.StreamAt(int64(i))
			return fetchService(net, &draws, &net.clients[i%len(net.clients)], svcs[i/8%len(svcs)].PermID, now, &sc)
		}},
	}
	for _, p := range paths {
		unobserved, answered := 0, 0
		if avg := testing.AllocsPerRun(500, func() {
			if rec := p.fetch(); !rec.observed {
				unobserved++
			} else {
				answered++
			}
			i++
		}); avg != 0 {
			t.Fatalf("%s fetch allocates %.1f times per call", p.name, avg)
		}
		if answered == 0 || unobserved == 0 {
			t.Fatalf("%s fetch: %d answered by observed directories, %d not; want both kinds", p.name, answered, unobserved)
		}
	}
}
