package simnet

import (
	"context"
	"runtime"
	"testing"
	"time"

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
