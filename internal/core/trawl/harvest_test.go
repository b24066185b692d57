package trawl

import (
	"bytes"
	"context"
	"encoding/gob"
	"reflect"
	"testing"
	"time"

	"torhs/internal/onion"
	"torhs/internal/simnet"
)

// TestHarvestLogMatchesNaiveOracle checks the harvest log against a
// naive read-out: every step rebuilt as a full-ring network, and every
// fetch event a fleet directory answered counted per descriptor ID in a
// plain map. With the trawl's DirFailureProb of 0 no directory is ever
// unreachable, so an event's Dir is the directory that answered it.
func TestHarvestLogMatchesNaiveOracle(t *testing.T) {
	const seed, steps = 21, 3
	tr, sim, pop, db, start := setupTrawl(t, seed, steps, true)
	h, err := tr.Run(context.Background(), sim, pop, db, start)
	if err != nil {
		t.Fatal(err)
	}

	// The oracle replays the same steps on a fresh sim and fleet.
	tr, sim, pop, db, start = setupTrawl(t, seed, steps, true)
	if tr.cfg.ClientConfig.DirFailureProb != 0 {
		t.Fatal("the oracle needs every first-tried directory to answer")
	}
	counts := make(map[onion.DescriptorID]int)
	total, found := 0, 0
	for step := 0; step < steps; step++ {
		now := start.Add(time.Duration(step) * tr.cfg.StepLen)
		tr.rotate(step)
		doc := sim.Authority().Publish(now)
		net, err := simnet.NewNetwork(doc, db, tr.stepConfig(step, nil))
		if err != nil {
			t.Fatal(err)
		}
		net.PublishAll(pop, now)
		if _, err := net.DriveWindow(context.Background(), pop, now, tr.cfg.StepLen, func(ev simnet.FetchEvent) {
			if !tr.allFPs[ev.Dir] {
				return
			}
			counts[ev.DescID]++
			total++
			if ev.Found {
				found++
			}
		}); err != nil {
			t.Fatal(err)
		}
	}
	if total == 0 {
		t.Fatal("oracle saw no requests")
	}
	if got := h.Log.Total(); got != total {
		t.Errorf("Total = %d, oracle %d", got, total)
	}
	if got, want := h.Log.FoundFraction(), float64(found)/float64(total); got != want {
		t.Errorf("FoundFraction = %v, oracle %v", got, want)
	}
	if got, _, _ := h.Log.CompactState(); !reflect.DeepEqual(got, counts) {
		t.Errorf("per-ID counts diverged from the oracle: %d vs %d IDs", len(got), len(counts))
	}
}

// assertHarvestsEqual compares every downstream-visible output of two
// harvests, the merged log's aggregate state included.
func assertHarvestsEqual(t *testing.T, want, got *Harvest) {
	t.Helper()
	if !reflect.DeepEqual(want.Addresses, got.Addresses) {
		t.Errorf("Addresses diverged: %d vs %d", len(want.Addresses), len(got.Addresses))
	}
	if !reflect.DeepEqual(want.PermIDs, got.PermIDs) {
		t.Error("PermIDs diverged")
	}
	if want.DescriptorsSeen != got.DescriptorsSeen {
		t.Errorf("DescriptorsSeen = %d, want %d", got.DescriptorsSeen, want.DescriptorsSeen)
	}
	if !reflect.DeepEqual(want.StepCoverage, got.StepCoverage) {
		t.Errorf("StepCoverage = %v, want %v", got.StepCoverage, want.StepCoverage)
	}
	if want.PublishedIDsSeen != got.PublishedIDsSeen {
		t.Errorf("PublishedIDsSeen = %d, want %d", got.PublishedIDsSeen, want.PublishedIDsSeen)
	}
	if want.RequestedPublishedIDs != got.RequestedPublishedIDs {
		t.Errorf("RequestedPublishedIDs = %d, want %d", got.RequestedPublishedIDs, want.RequestedPublishedIDs)
	}
	if want.CollectedFraction != got.CollectedFraction {
		t.Errorf("CollectedFraction = %v, want %v", got.CollectedFraction, want.CollectedFraction)
	}
	if !want.Start.Equal(got.Start) || !want.End.Equal(got.End) {
		t.Error("attack window diverged")
	}
	wc, wt, wf := want.Log.CompactState()
	gc, gt, gf := got.Log.CompactState()
	if !reflect.DeepEqual(wc, gc) || wt != gt || wf != gf {
		t.Errorf("merged logs diverged: total %d vs %d, found %d vs %d", gt, wt, gf, wf)
	}
}

// TestHarvestStateRoundTrip pins the snapshot's harvest encoding: a
// harvest must survive State → gob → unpack with every aggregate intact.
func TestHarvestStateRoundTrip(t *testing.T) {
	tr, sim, pop, db, start := setupTrawl(t, 22, 3, true)
	h, err := tr.Run(context.Background(), sim, pop, db, start)
	if err != nil {
		t.Fatal(err)
	}
	var buf bytes.Buffer
	if err := gob.NewEncoder(&buf).Encode(h.State()); err != nil {
		t.Fatal(err)
	}
	var st HarvestState
	if err := gob.NewDecoder(&buf).Decode(&st); err != nil {
		t.Fatal(err)
	}
	back, err := st.unpack()
	if err != nil {
		t.Fatalf("unpack refused a compact state: %v", err)
	}
	assertHarvestsEqual(t, h, back)
}

// rawRequest has the gob fields of the raw request record that
// pre-compact logs kept and spilled.
type rawRequest struct {
	At     time.Time
	DescID onion.DescriptorID
	Found  bool
}

// rawHarvestState is the harvest state as materialized runs wrote it
// before compact logs: raw request records and no compact aggregate.
type rawHarvestState struct {
	Addresses       map[onion.Address]bool
	DescriptorsSeen int
	StepCoverage    []float64
	Start, End      time.Time
	Requests        []rawRequest
}

// TestHarvestStateWithoutCompactIsRefused: a raw-form state decodes
// into HarvestState with an empty log, so unpack must refuse
// it rather than hand back a harvest with no requests.
func TestHarvestStateWithoutCompactIsRefused(t *testing.T) {
	var addr onion.Address
	raw := rawHarvestState{
		Addresses:       map[onion.Address]bool{addr: true},
		DescriptorsSeen: 7,
		StepCoverage:    []float64{0.5},
		Requests:        []rawRequest{{DescID: onion.DescriptorID{1}, Found: true}},
	}
	var buf bytes.Buffer
	if err := gob.NewEncoder(&buf).Encode(raw); err != nil {
		t.Fatal(err)
	}
	var st HarvestState
	if err := gob.NewDecoder(&buf).Decode(&st); err != nil {
		t.Fatal(err)
	}
	if st.DescriptorsSeen != 7 {
		t.Fatalf("raw state decoded DescriptorsSeen %d, want 7", st.DescriptorsSeen)
	}
	if h, err := st.unpack(); err == nil {
		t.Fatalf("raw state restored as a harvest with %d logged requests", h.Log.Total())
	}
}
