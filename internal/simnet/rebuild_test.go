package simnet

import (
	"context"
	"fmt"
	"reflect"
	"slices"
	"testing"
	"time"

	"torhs/internal/consensus"
	"torhs/internal/hsdir"
	"torhs/internal/hspop"
	"torhs/internal/race"
	"torhs/internal/relaynet"
)

// rebuildDocs returns six consensus documents whose HSDir rings
// alternate between about 400 and about 150 relays, a day apart.
func rebuildDocs(t *testing.T, seed int64) []*consensus.Document {
	t.Helper()
	var fleets [2][]*consensus.Document
	for k, relays := range []int{400, 150} {
		fleet := relaynet.DefaultFleetConfig(seed + int64(k))
		fleet.Days = 3
		fleet.InitialRelays, fleet.FinalRelays = relays, relays
		sim, err := relaynet.NewSim(fleet)
		if err != nil {
			t.Fatal(err)
		}
		h, err := sim.Run(nil)
		if err != nil {
			t.Fatal(err)
		}
		fleets[k] = h.All()
	}
	var docs []*consensus.Document
	for i := range fleets[0] {
		docs = append(docs, fleets[0][i], fleets[1][i])
	}
	return docs
}

// rebuildStep publishes the population at the document's start and,
// with traffic, drives one hour-long window from there.
func rebuildStep(t *testing.T, net *Network, pop *hspop.Population, traffic bool) TrafficStats {
	t.Helper()
	now := net.doc.ValidAfter
	net.PublishAll(pop, now)
	if !traffic {
		return TrafficStats{}
	}
	st, err := net.DriveWindow(context.Background(), pop, now, time.Hour, nil)
	if err != nil {
		t.Fatal(err)
	}
	return st
}

// TestRebuiltNetworkMatchesFresh pins Rebuild against NewNetwork as its
// oracle. One network is rebuilt step after step over documents whose
// ring grows and shrinks, with observed sets and client counts that grow
// and shrink too, through an unrestricted step and back. After every
// step it must equal a fresh network built for that step: every
// directory's descriptors, field for field, and requested IDs, the log's
// per-ID counts, total and found tally, the window's stats and the next
// draw of the network RNG. It runs at several worker counts, with
// traffic and without.
func TestRebuiltNetworkMatchesFresh(t *testing.T) {
	const seed = 79
	f := newRestrictFixture(t, seed)
	docs := rebuildDocs(t, seed)
	steps := []struct {
		doc      int
		observed string // "" runs unrestricted
		clients  int
	}{
		{0, "tenth", 200}, {1, "half", 120}, {2, "one", 260}, {3, "", 150},
		{4, "tenth", 200}, {5, "all", 90}, {0, "none", 200}, {2, "tenth", 240},
	}
	for _, workers := range []int{1, 2, 8} {
		for _, traffic := range []bool{false, true} {
			net := f.network(t, seed, workers, observedSubsets(f.doc.Ring().Fingerprints(), seed)["half"])
			rebuildStep(t, net, f.pop, traffic)
			for i, st := range steps {
				name := fmt.Sprintf("workers=%d traffic=%v step %d", workers, traffic, i)
				doc := docs[st.doc]
				cfg := DefaultConfig(seed + int64(i))
				cfg.Clients, cfg.Workers = st.clients, workers
				if st.observed != "" {
					cfg.Observed = observedSubsets(doc.Ring().Fingerprints(), seed+int64(i))[st.observed]
				}
				if err := net.Rebuild(doc, f.db, cfg); err != nil {
					t.Fatal(err)
				}
				fresh, err := NewNetwork(doc, f.db, cfg)
				if err != nil {
					t.Fatal(err)
				}
				if got, want := rebuildStep(t, net, f.pop, traffic), rebuildStep(t, fresh, f.pop, traffic); got != want {
					t.Fatalf("%s: rebuilt network's window %+v, fresh network's %+v", name, got, want)
				}
				checkSameNetwork(t, name, net, fresh)
			}
		}
	}
}

// checkSameNetwork compares everything a reader can observe of two
// networks over the same step (see TestRebuiltNetworkMatchesFresh).
func checkSameNetwork(t *testing.T, name string, got, want *Network) {
	t.Helper()
	if len(got.dirs) != len(want.dirs) {
		t.Fatalf("%s: %d ring positions, fresh network %d", name, len(got.dirs), len(want.dirs))
	}
	stored := 0
	for i, d := range want.dirs {
		if (d == nil) != (got.dirs[i] == nil) {
			t.Fatalf("%s: ring position %d observed %v, on the fresh network %v", name, i, got.dirs[i] != nil, d != nil)
		}
		if d == nil {
			continue
		}
		stored += d.PublishedEver()
		if diff := diffDir(stateOf(got.dirs[i]), stateOf(d)); diff != "" {
			t.Fatalf("%s: directory %d: %s", name, i, diff)
		}
	}
	if got.Restricted() != want.Restricted() {
		t.Fatalf("%s: restricted %v, fresh network %v", name, got.Restricted(), want.Restricted())
	}
	if want.Restricted() && !reflect.DeepEqual(logStateOf(got.Log()), logStateOf(want.Log())) {
		t.Fatalf("%s: log counts %d requests, fresh network's %d", name, got.Log().Total(), want.Log().Total())
	}
	if g, w := got.rng.Int63(), want.rng.Int63(); g != w {
		t.Fatalf("%s: next network draw %d, fresh network's %d", name, g, w)
	}
	if stored == 0 && len(got.dirs) > 0 && got.observedShare() > 0 {
		t.Fatalf("%s: no observed directory stores a descriptor", name)
	}
}

// TestRebuildReusesBuffers pins what a rebuild takes back: a step that
// needs no more room than the step before reallocates neither the client
// slice, nor the descriptor arena, nor any directory, and a rebuilt
// step allocates as often over a population four times the size, and
// fewer times than it observes directories, so no buffer that grows
// with the population or one per directory is allocated again.
func TestRebuildReusesBuffers(t *testing.T) {
	if race.Enabled {
		t.Skip("allocation counts vary under -race")
	}
	const seed = 83
	f := newRestrictFixture(t, seed)
	cfg := f.pop.Config
	cfg.Scale *= 4
	big, err := hspop.Generate(context.Background(), cfg)
	if err != nil {
		t.Fatal(err)
	}
	netCfg := DefaultConfig(seed)
	netCfg.Clients = 200
	netCfg.Observed = observedSubsets(f.doc.Ring().Fingerprints(), seed)["tenth"]
	var allocs []float64
	for _, pop := range []*hspop.Population{f.pop, big} {
		var net Network
		step := func() {
			if err := net.Rebuild(f.doc, f.db, netCfg); err != nil {
				t.Fatal(err)
			}
			rebuildStep(t, &net, pop, true)
		}
		step()
		clients, descs, dirs := &net.clients[0], &net.descArena[0], observedDirs(&net)
		step()
		if &net.clients[0] != clients || &net.descArena[0] != descs || !sameDirs(observedDirs(&net), dirs) {
			t.Fatalf("a rebuild for a step of the same size reallocated: clients %v, descriptor arena %v, directories %v",
				&net.clients[0] != clients, &net.descArena[0] != descs, !sameDirs(observedDirs(&net), dirs))
		}
		// A directory serves another position after each rebuild and
		// grows to the largest it has served, so the count settles only
		// once every directory has.
		for range 16 {
			step()
		}
		allocs = append(allocs, testing.AllocsPerRun(5, step))
	}
	if n := len(observedDirs(f.network(t, seed, 1, netCfg.Observed))); allocs[0] != allocs[1] || allocs[0] >= float64(n) {
		t.Fatalf("a rebuilt step allocates %v times over N services and %v over 4N; want equal, under its %d directories", allocs[0], allocs[1], n)
	}
}

// sameDirs reports whether a and b hold the same directories, in any
// order.
func sameDirs(a, b []*hsdir.Directory) bool {
	in := make(map[*hsdir.Directory]bool, len(a))
	for _, d := range a {
		in[d] = true
	}
	return len(a) == len(b) && !slices.ContainsFunc(b, func(d *hsdir.Directory) bool { return !in[d] })
}

// observedDirs lists the network's observed directories in ring order.
func observedDirs(n *Network) []*hsdir.Directory {
	var out []*hsdir.Directory
	for _, d := range n.dirs {
		if d != nil {
			out = append(out, d)
		}
	}
	return out
}
