package simnet

import (
	"context"
	"runtime"
	"testing"
	"time"
	"unsafe"

	"torhs/internal/geo"
	"torhs/internal/hspop"
	"torhs/internal/relaynet"
)

// driveOnce builds a fresh network at the given worker count, drives one
// window, and returns the stats, the observed event stream and the
// network.
func driveOnce(t *testing.T, seed int64, workers int) (TrafficStats, []FetchEvent, *Network) {
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
	doc := h.All()[0]
	db, err := geo.NewDB(geo.DefaultBotnetMix())
	if err != nil {
		t.Fatal(err)
	}
	cfg := DefaultConfig(seed)
	cfg.Clients = 300
	cfg.Workers = workers
	net, err := NewNetwork(doc, db, cfg)
	if err != nil {
		t.Fatal(err)
	}
	pop, err := hspop.Generate(context.Background(), hspop.TestConfig(seed))
	if err != nil {
		t.Fatal(err)
	}
	now := doc.ValidAfter
	net.PublishAll(pop, now)

	var events []FetchEvent
	stats, _ := net.DriveWindow(context.Background(), pop, now, 2*time.Hour, func(ev FetchEvent) {
		events = append(events, ev)
	})
	return stats, events, net
}

// TestDriveWindowIdenticalAcrossWorkerCounts asserts the three-phase
// drive (sequential plan, concurrent fetch, ordered replay) delivers the
// same stats, the same observer event stream, and the same store at
// every directory, at every worker count.
func TestDriveWindowIdenticalAcrossWorkerCounts(t *testing.T) {
	old := runtime.GOMAXPROCS(8)
	defer runtime.GOMAXPROCS(old)
	baseStats, baseEvents, baseNet := driveOnce(t, 21, 1)
	if baseStats.TotalRequests == 0 {
		t.Fatal("no traffic driven")
	}
	baseDirs := make([]dirState, len(baseNet.Directories()))
	for i, d := range baseNet.Directories() {
		baseDirs[i] = stateOf(d)
	}
	for _, workers := range []int{2, 3, 4, 8} {
		stats, events, net := driveOnce(t, 21, workers)
		if stats != baseStats {
			t.Fatalf("stats differ at workers=%d: %+v vs %+v", workers, stats, baseStats)
		}
		if len(events) != len(baseEvents) {
			t.Fatalf("event count differs at workers=%d: %d vs %d", workers, len(events), len(baseEvents))
		}
		for i := range events {
			a, b := events[i], baseEvents[i]
			// Client pointers differ across networks; compare by ID.
			if a.Client.ID != b.Client.ID || a.Guard != b.Guard || a.Dir != b.Dir ||
				a.DescID != b.DescID || a.Found != b.Found || a.Attempts != b.Attempts ||
				!a.At.Equal(b.At) {
				t.Fatalf("event %d differs at workers=%d:\n%+v\nvs\n%+v", i, workers, a, b)
			}
		}
		for i, d := range net.Directories() {
			if diff := diffDir(baseDirs[i], stateOf(d)); diff != "" {
				t.Fatalf("directory %d differs at workers=%d: %s", i, workers, diff)
			}
		}
	}
}

// TestNilObserverMatchesCountingObserver: on an unrestricted network a
// window with no observer, which buffers no per-request records, returns
// the same stats and leaves the network RNG where the same window with a
// counting observer leaves it, window after window, at every worker
// count.
func TestNilObserverMatchesCountingObserver(t *testing.T) {
	old := runtime.GOMAXPROCS(8)
	defer runtime.GOMAXPROCS(old)
	f := newRestrictFixture(t, 61)
	now := f.doc.ValidAfter
	for _, workers := range []int{1, 2, 8} {
		for _, fail := range []float64{0, 0.3} {
			counted := f.network(t, 61, workers, fail, nil)
			plain := f.network(t, 61, workers, fail, nil)
			counted.PublishAll(f.pop, now)
			plain.PublishAll(f.pop, now)
			for w := 0; w < 3; w++ {
				at := now.Add(time.Duration(w) * 2 * time.Hour)
				events := 0
				want, err := counted.DriveWindow(context.Background(), f.pop, at, 2*time.Hour, func(FetchEvent) { events++ })
				if err != nil {
					t.Fatal(err)
				}
				got, err := plain.DriveWindow(context.Background(), f.pop, at, 2*time.Hour, nil)
				if err != nil {
					t.Fatal(err)
				}
				if want.TotalRequests == 0 || events != want.TotalRequests {
					t.Fatalf("workers=%d fail=%v window %d: %d events for %+v", workers, fail, w, events, want)
				}
				if got != want {
					t.Fatalf("workers=%d fail=%v window %d: nil observer %+v, counting observer %+v", workers, fail, w, got, want)
				}
				if x, y := counted.rng.Int63(), plain.rng.Int63(); x != y {
					t.Fatalf("workers=%d fail=%v window %d: network RNGs diverged", workers, fail, w)
				}
			}
		}
	}
}

// TestNilObserverWindowAllocBounded: an unrestricted window with no
// observer allocates under a fixed bound however many requests it
// drives, even with simnet's window pools emptied (as between trawl
// steps): it keeps nothing per request. One record per request alone
// would take several times the bound here.
func TestNilObserverWindowAllocBounded(t *testing.T) {
	const bound = 1 << 20
	net, pop, now := buildNetwork(t, 5)
	net.PublishAll(pop, now)
	start := now.Add(time.Hour)
	// A first window builds the secret table the measured one reuses.
	if _, err := net.DriveWindow(context.Background(), pop, start, 2*time.Hour, nil); err != nil {
		t.Fatal(err)
	}
	runtime.GC()
	runtime.GC()
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	st, err := net.DriveWindow(context.Background(), pop, start, 2*time.Hour, nil)
	runtime.ReadMemStats(&after)
	if err != nil {
		t.Fatal(err)
	}
	if records := uint64(st.TotalRequests) * uint64(unsafe.Sizeof(fetchRec{})); records < 8*bound {
		t.Fatalf("window of %d requests too small to tell: records would take %d B", st.TotalRequests, records)
	}
	if alloc := after.TotalAlloc - before.TotalAlloc; alloc > bound {
		t.Fatalf("nil-observer window of %d requests allocated %d B, bound %d B", st.TotalRequests, alloc, bound)
	}
}
