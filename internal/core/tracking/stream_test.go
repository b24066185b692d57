package tracking

import (
	"context"
	"reflect"
	"runtime"
	"testing"
	"time"

	"torhs/internal/consensus"
	"torhs/internal/fault"
)

// TestScenarioSourceMatchesHistory pins the rebuild-from-seed contract:
// the streamed document sequence must equal the materialized history
// document for document, including after a backward read forces a
// replay, and the ring must never hold more than K documents.
func TestScenarioSourceMatchesHistory(t *testing.T) {
	cfg := DefaultScenarioConfig(31)
	sc, err := BuildScenario(cfg)
	if err != nil {
		t.Fatal(err)
	}
	ssc, src, err := NewScenarioSource(cfg, 3)
	if err != nil {
		t.Fatal(err)
	}
	if ssc.Target != sc.Target || !ssc.Start.Equal(sc.Start) {
		t.Fatal("streaming scenario ground truth diverged from the materialized build")
	}
	if src.Len() != sc.History.Len() {
		t.Fatalf("source Len = %d, history Len = %d", src.Len(), sc.History.Len())
	}
	docs := sc.History.All()
	for i := 0; i < src.Len(); i++ {
		doc, err := src.At(i)
		if err != nil {
			t.Fatalf("At(%d): %v", i, err)
		}
		if !reflect.DeepEqual(doc, docs[i]) {
			t.Fatalf("streamed document %d diverged from the archived history", i)
		}
	}
	// Rewinding past the ring replays from seed and still matches.
	doc0, err := src.At(0)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(doc0, docs[0]) {
		t.Fatal("document 0 diverged after a rewind-by-rebuild")
	}
	if src.Ring() != 3 {
		t.Fatalf("Ring() = %d, want 3", src.Ring())
	}
}

// streamReport runs AnalyzeSource over a fresh ScenarioSource.
func streamReport(t *testing.T, cfg ScenarioConfig, workers, ring int) *Report {
	t.Helper()
	aCfg := DefaultConfig()
	aCfg.Workers = workers
	an, err := NewAnalyzer(aCfg)
	if err != nil {
		t.Fatal(err)
	}
	_, src, err := NewScenarioSource(cfg, ring)
	if err != nil {
		t.Fatal(err)
	}
	rep, err := an.AnalyzeSource(context.Background(), src, mustScenario(t, cfg).Target, nil, 0, false)
	if err != nil {
		t.Fatal(err)
	}
	return rep
}

var scenarioCache = map[int64]*Scenario{}

// mustScenario memoizes BuildScenario per seed — the reference
// materialized history the streaming runs are compared against.
func mustScenario(t *testing.T, cfg ScenarioConfig) *Scenario {
	t.Helper()
	if sc, ok := scenarioCache[cfg.Seed]; ok {
		return sc
	}
	sc, err := BuildScenario(cfg)
	if err != nil {
		t.Fatal(err)
	}
	scenarioCache[cfg.Seed] = sc
	return sc
}

// TestAnalyzeSourceStreamingMatchesMaterialized is the tracking leg of
// the streaming equivalence contract: the report from a bounded-ring
// streaming source must equal the materialized-history report exactly,
// at every worker count (sharded streaming clones the source per shard)
// and at every ring size down to 1.
func TestAnalyzeSourceStreamingMatchesMaterialized(t *testing.T) {
	old := runtime.GOMAXPROCS(8)
	defer runtime.GOMAXPROCS(old)

	cfg := DefaultScenarioConfig(32)
	sc := mustScenario(t, cfg)
	an, err := NewAnalyzer(DefaultConfig())
	if err != nil {
		t.Fatal(err)
	}
	from := sc.Start
	to := from.Add(time.Duration(cfg.Days) * 24 * time.Hour)
	ref, err := an.AnalyzeSource(context.Background(), Docs(sc.History.Range(from, to)), sc.Target, nil, 0, false)
	if err != nil {
		t.Fatal(err)
	}
	if len(ref.Suspicious) == 0 {
		t.Fatal("reference analysis found nothing; scenario too small to prove anything")
	}
	for _, tc := range []struct{ workers, ring int }{
		{1, 1}, {1, 0}, {4, 1}, {4, 0}, {8, 2}, {0, 0},
	} {
		got := streamReport(t, cfg, tc.workers, tc.ring)
		if !reflect.DeepEqual(ref, got) {
			t.Fatalf("streamed report (workers=%d ring=%d) diverged from materialized analysis",
				tc.workers, tc.ring)
		}
	}
}

// TestStreamingCrashResumeByteIdentical kills a checkpointed streaming
// sweep at the window fault site and resumes it over the same snapshot
// set: the resumed report must equal an uninterrupted materialized run's.
func TestStreamingCrashResumeByteIdentical(t *testing.T) {
	cfg := DefaultScenarioConfig(33)
	sc := mustScenario(t, cfg)
	an, err := NewAnalyzer(DefaultConfig())
	if err != nil {
		t.Fatal(err)
	}
	from := sc.Start
	to := from.Add(time.Duration(cfg.Days) * 24 * time.Hour)
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
				t.Fatal("streaming analysis did not crash at the window site")
			}
		}()
		_, src, err := NewScenarioSource(cfg, 0)
		if err != nil {
			t.Fatal(err)
		}
		an.AnalyzeSource(context.Background(), src, sc.Target, ctxSet{set}, 7, false)
	}()
	fault.Install(prev)

	// "Process two": a fresh source resumes from the snapshot; its ring
	// replays forward from seed to the restored window.
	_, src, err := NewScenarioSource(cfg, 0)
	if err != nil {
		t.Fatal(err)
	}
	got, err := an.AnalyzeSource(context.Background(), src, sc.Target, ctxSet{set}, 7, true)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(ref, got) {
		t.Fatal("resumed streaming analysis diverged from uninterrupted materialized run")
	}
}

// TestStreamingCancellationExact cancels a checkpointed streaming sweep
// mid-fold, requires the cancellation to surface as ctx.Err() with the
// folded prefix flushed, and requires the resumed report to be exact.
func TestStreamingCancellationExact(t *testing.T) {
	cfg := DefaultScenarioConfig(34)
	sc := mustScenario(t, cfg)
	an, err := NewAnalyzer(DefaultConfig())
	if err != nil {
		t.Fatal(err)
	}
	from := sc.Start
	to := from.Add(time.Duration(cfg.Days) * 24 * time.Hour)
	ref, err := an.AnalyzeSource(context.Background(), Docs(sc.History.Range(from, to)), sc.Target, nil, 0, false)
	if err != nil {
		t.Fatal(err)
	}
	set := trackingCkptSet(t)

	// Cancel after window 50 folds: the source counts folds and trips the
	// context from inside the sweep, the way a deadline lands mid-run.
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	_, src, err := NewScenarioSource(cfg, 0)
	if err != nil {
		t.Fatal(err)
	}
	cs := &cancellingSource{DocSource: src, cancelAt: 50, cancel: cancel}
	if _, err := an.AnalyzeSource(ctx, cs, sc.Target, ctxSet{set}, 5, false); err != context.Canceled {
		t.Fatalf("cancelled sweep returned %v, want context.Canceled", err)
	}
	// The cancellation flush must have landed a snapshot of the folded
	// prefix, so the resume skips straight past it.
	var snap sweepSnapshot
	if _, ok, err := set.Latest(&snap); err != nil || !ok {
		t.Fatalf("no snapshot after cancellation flush (ok=%v err=%v)", ok, err)
	}
	if snap.Docs < 50 {
		t.Fatalf("cancellation flush covers %d documents, want >= 50", snap.Docs)
	}

	_, src2, err := NewScenarioSource(cfg, 0)
	if err != nil {
		t.Fatal(err)
	}
	got, err := an.AnalyzeSource(context.Background(), src2, sc.Target, ctxSet{set}, 5, true)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(ref, got) {
		t.Fatal("post-cancellation resume diverged from uninterrupted run")
	}
}

// cancellingSource trips its cancel func after cancelAt documents.
type cancellingSource struct {
	DocSource
	served   int
	cancelAt int
	cancel   context.CancelFunc
}

func (c *cancellingSource) At(i int) (*consensus.Document, error) {
	d, err := c.DocSource.At(i)
	c.served++
	if c.served == c.cancelAt {
		c.cancel()
	}
	return d, err
}
