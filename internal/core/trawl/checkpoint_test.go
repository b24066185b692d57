package trawl

import (
	"context"
	"errors"
	"testing"
	"time"

	"torhs/internal/fault"
	"torhs/internal/geo"
	"torhs/internal/hspop"
	"torhs/internal/onion"
	"torhs/internal/relaynet"
	"torhs/internal/resultstore"
)

// ckptRun builds a fresh sim/population/fleet from the same seed and
// runs the attack once — the moral equivalent of one process lifetime,
// so a "crashed" run and its resume each call ckptRun anew.
func ckptRun(t *testing.T, mutate func(*Config)) (*Harvest, error) {
	t.Helper()
	const seed = 5
	fleet := relaynet.DefaultFleetConfig(seed)
	fleet.Days = 1
	fleet.InitialRelays = 300
	fleet.FinalRelays = 300
	sim, err := relaynet.NewSim(fleet)
	if err != nil {
		t.Fatal(err)
	}
	cfg := DefaultConfig(seed)
	cfg.IPs = 20
	cfg.Steps = 6
	cfg.ClientConfig.Clients = 300
	if mutate != nil {
		mutate(&cfg)
	}
	tr, err := NewTrawler(cfg)
	if err != nil {
		t.Fatal(err)
	}
	popCfg := hspop.TestConfig(seed)
	popCfg.Scale = 0.02
	pop, err := hspop.Generate(context.Background(), popCfg)
	if err != nil {
		t.Fatal(err)
	}
	db, err := geo.NewDB(geo.DefaultBotnetMix())
	if err != nil {
		t.Fatal(err)
	}
	start := fleet.Start.Add(48 * time.Hour)
	tr.Deploy(sim, start)
	return tr.Run(context.Background(), sim, pop, db, start)
}

func testCkptSet(t *testing.T) *resultstore.CheckpointSet {
	t.Helper()
	s, err := resultstore.Open(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	c, err := s.Checkpoints(resultstore.Key{
		Experiment:  "ckpt-trawl",
		Scenario:    "test",
		Params:      "seed=5",
		CodeVersion: "test",
	})
	if err != nil {
		t.Fatal(err)
	}
	return c
}

// ctxSet adapts the raw store CheckpointSet to the ctx-aware trawl
// Checkpointer, the way the experiments layer's retry wrapper does in
// production; the storage API itself stays context-free.
type ctxSet struct{ set *resultstore.CheckpointSet }

func (c ctxSet) Save(_ context.Context, w int, s any) error         { return c.set.Save(w, s) }
func (c ctxSet) Latest(_ context.Context, s any) (int, bool, error) { return c.set.Latest(s) }

func TestCheckpointedRunMatchesPlain(t *testing.T) {
	ref, err := ckptRun(t, nil)
	if err != nil {
		t.Fatal(err)
	}
	set := testCkptSet(t)
	got, err := ckptRun(t, func(c *Config) { c.Checkpoint = ctxSet{set} })
	if err != nil {
		t.Fatal(err)
	}
	assertHarvestsEqual(t, ref, got)
}

func TestCrashAtStepResumesByteIdentical(t *testing.T) {
	ref, err := ckptRun(t, nil)
	if err != nil {
		t.Fatal(err)
	}
	set := testCkptSet(t)

	// "Process one": checkpoint every step, crash entering step 4.
	in := fault.New(1)
	if err := in.Set(fault.SiteTrawlStep, fault.Rule{Mode: fault.ModeCrash, At: 4}); err != nil {
		t.Fatal(err)
	}
	prev := fault.Active()
	fault.Install(in)
	crashed := func() (cp fault.CrashPoint, ok bool) {
		defer func() {
			if r := recover(); r != nil {
				cp, ok = r.(fault.CrashPoint)
				if !ok {
					panic(r)
				}
			}
		}()
		ckptRun(t, func(c *Config) { c.Checkpoint = ctxSet{set} })
		return
	}
	cp, ok := crashed()
	fault.Install(prev)
	if !ok || cp.Site != fault.SiteTrawlStep {
		t.Fatalf("run did not crash at the step site: %+v ok=%v", cp, ok)
	}

	// "Process two": resume from the snapshot; output must match the
	// uninterrupted reference bit for bit.
	got, err := ckptRun(t, func(c *Config) {
		c.Checkpoint = ctxSet{set}
		c.Resume = true
	})
	if err != nil {
		t.Fatal(err)
	}
	assertHarvestsEqual(t, ref, got)
}

// rawSnapshot is a trawl checkpoint as runs wrote it before compact
// logs: the merged log as raw request records, no compact aggregate.
type rawSnapshot struct {
	Step            int
	Addresses       map[onion.Address]bool
	DescriptorsSeen int
	StepCoverage    []float64
	Requests        []rawRequest
}

// TestResumeIgnoresRawSnapshot: a raw-form snapshot would decode into a
// Snapshot with an empty log, so resuming must not restore it. The run
// starts over from step 0 and matches an uninterrupted run.
func TestResumeIgnoresRawSnapshot(t *testing.T) {
	ref, err := ckptRun(t, nil)
	if err != nil {
		t.Fatal(err)
	}
	set := testCkptSet(t)
	var addr onion.Address
	if err := set.Save(3, rawSnapshot{
		Step:            3,
		Addresses:       map[onion.Address]bool{addr: true},
		DescriptorsSeen: 1,
		StepCoverage:    []float64{0.5, 0.5, 0.5, 0.5},
		Requests:        []rawRequest{{DescID: onion.DescriptorID{1}, Found: true}},
	}); err != nil {
		t.Fatal(err)
	}
	got, err := ckptRun(t, func(c *Config) {
		c.Checkpoint = ctxSet{set}
		c.Resume = true
	})
	if err != nil {
		t.Fatal(err)
	}
	assertHarvestsEqual(t, ref, got)
}

func TestCheckpointEveryNCadence(t *testing.T) {
	set := testCkptSet(t)
	if _, err := ckptRun(t, func(c *Config) {
		c.Checkpoint = ctxSet{set}
		c.CheckpointEvery = 2
	}); err != nil {
		t.Fatal(err)
	}
	// Steps 0..5 with cadence 2 and no final-step snapshot: snapshots
	// after steps 1 and 3 (pruning keeps both).
	var snap Snapshot
	w, ok, err := set.Latest(&snap)
	if err != nil || !ok {
		t.Fatalf("Latest = ok=%v err=%v", ok, err)
	}
	if w != 3 || snap.Step != 3 {
		t.Fatalf("latest window = %d (step %d), want 3", w, snap.Step)
	}
}

func TestStepFaultIsTransient(t *testing.T) {
	in := fault.New(1)
	if err := in.Set(fault.SiteTrawlStep, fault.Rule{Mode: fault.ModeErr, At: 2}); err != nil {
		t.Fatal(err)
	}
	prev := fault.Active()
	fault.Install(in)
	t.Cleanup(func() { fault.Install(prev) })
	_, err := ckptRun(t, nil)
	if err == nil {
		t.Fatal("run under an armed step fault succeeded")
	}
	if !errors.Is(err, fault.Transient) {
		t.Fatalf("step fault lost its transient classification: %v", err)
	}
}
