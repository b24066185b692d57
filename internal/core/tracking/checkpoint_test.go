package tracking

import (
	"context"
	"errors"
	"reflect"
	"testing"
	"time"

	"torhs/internal/fault"
	"torhs/internal/resultstore"
)

func ckptScenario(t *testing.T) (*Scenario, *Analyzer, time.Time, time.Time) {
	t.Helper()
	sc, err := BuildScenario(DefaultScenarioConfig(50))
	if err != nil {
		t.Fatal(err)
	}
	an, err := NewAnalyzer(DefaultConfig())
	if err != nil {
		t.Fatal(err)
	}
	from := sc.Start
	return sc, an, from, from.Add(120 * 24 * time.Hour)
}

func trackingCkptSet(t *testing.T) *resultstore.CheckpointSet {
	t.Helper()
	s, err := resultstore.Open(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	c, err := s.Checkpoints(resultstore.Key{
		Experiment:  "ckpt-tracking",
		Scenario:    "test",
		Params:      "seed=50",
		CodeVersion: "test",
	})
	if err != nil {
		t.Fatal(err)
	}
	return c
}

// ctxSet adapts the raw store CheckpointSet to the ctx-aware tracking
// Checkpointer, the way the experiments layer's retry wrapper does in
// production; the storage API itself stays context-free.
type ctxSet struct{ set *resultstore.CheckpointSet }

func (c ctxSet) Save(_ context.Context, w int, s any) error         { return c.set.Save(w, s) }
func (c ctxSet) Latest(_ context.Context, s any) (int, bool, error) { return c.set.Latest(s) }

func TestTrackingCheckpointedMatchesPlain(t *testing.T) {
	sc, an, from, to := ckptScenario(t)
	ref, err := an.AnalyzeSource(context.Background(), Docs(sc.History.Range(from, to)), sc.Target, nil, 0, false)
	if err != nil {
		t.Fatal(err)
	}
	set := trackingCkptSet(t)
	got, err := an.AnalyzeSource(context.Background(), Docs(sc.History.Range(from, to)), sc.Target, ctxSet{set}, 10, false)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(ref, got) {
		t.Fatal("checkpointed analysis diverged from the uncheckpointed sweep")
	}
}

func TestTrackingCrashResumeByteIdentical(t *testing.T) {
	sc, an, from, to := ckptScenario(t)
	ref, err := an.AnalyzeSource(context.Background(), Docs(sc.History.Range(from, to)), sc.Target, nil, 0, false)
	if err != nil {
		t.Fatal(err)
	}
	set := trackingCkptSet(t)

	// "Process one": crash entering window 60, snapshots every 7 docs.
	in := fault.New(1)
	if err := in.Set(fault.SiteTrackingWindow, fault.Rule{Mode: fault.ModeCrash, At: 60}); err != nil {
		t.Fatal(err)
	}
	prev := fault.Active()
	fault.Install(in)
	func() {
		defer func() {
			if _, ok := recover().(fault.CrashPoint); !ok {
				t.Fatal("analysis did not crash at the window site")
			}
		}()
		an.AnalyzeSource(context.Background(), Docs(sc.History.Range(from, to)), sc.Target, ctxSet{set}, 7, false)
	}()
	fault.Install(prev)

	// "Process two": resume; the report must match bit for bit.
	got, err := an.AnalyzeSource(context.Background(), Docs(sc.History.Range(from, to)), sc.Target, ctxSet{set}, 7, true)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(ref, got) {
		t.Fatal("resumed analysis diverged from uninterrupted run")
	}
}

func TestTrackingWindowFaultIsTransient(t *testing.T) {
	sc, an, from, to := ckptScenario(t)
	in := fault.New(1)
	if err := in.Set(fault.SiteTrackingWindow, fault.Rule{Mode: fault.ModeErr, At: 5}); err != nil {
		t.Fatal(err)
	}
	prev := fault.Active()
	fault.Install(in)
	t.Cleanup(func() { fault.Install(prev) })
	_, err := an.AnalyzeSource(context.Background(), Docs(sc.History.Range(from, to)), sc.Target, nil, 0, false)
	if err == nil {
		t.Fatal("analysis under an armed window fault succeeded")
	}
	if !errors.Is(err, fault.Transient) {
		t.Fatalf("window fault lost its transient classification: %v", err)
	}
}
