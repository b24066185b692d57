package tracking

import (
	"context"
	"reflect"
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

// streamReport runs Analyze over a fresh ScenarioSource.
func streamReport(t *testing.T, cfg ScenarioConfig, ring int) *Report {
	t.Helper()
	an, err := NewAnalyzer(DefaultConfig())
	if err != nil {
		t.Fatal(err)
	}
	_, src, err := NewScenarioSource(cfg, ring)
	if err != nil {
		t.Fatal(err)
	}
	rep, err := an.Analyze(context.Background(), src, mustScenario(t, cfg).Target)
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
// at every ring size down to 1.
func TestAnalyzeSourceStreamingMatchesMaterialized(t *testing.T) {
	cfg := DefaultScenarioConfig(32)
	sc := mustScenario(t, cfg)
	an, err := NewAnalyzer(DefaultConfig())
	if err != nil {
		t.Fatal(err)
	}
	from := sc.Start
	to := from.Add(time.Duration(cfg.Days) * 24 * time.Hour)
	ref, err := an.Analyze(context.Background(), Docs(sc.History.Range(from, to)), sc.Target)
	if err != nil {
		t.Fatal(err)
	}
	if len(ref.Suspicious) == 0 {
		t.Fatal("reference analysis found nothing; scenario too small to prove anything")
	}
	for _, ring := range []int{1, 2, 0} {
		if got := streamReport(t, cfg, ring); !reflect.DeepEqual(ref, got) {
			t.Fatalf("streamed report (ring=%d) diverged from materialized analysis", ring)
		}
	}
}

// TestStreamingCrashResumeByteIdentical kills a streaming sweep at the
// window fault site, then folds a fresh source from document zero — all
// a resumed study does for tracking: the report must equal an
// uninterrupted materialized run's.
func TestStreamingCrashResumeByteIdentical(t *testing.T) {
	cfg := DefaultScenarioConfig(33)
	sc := mustScenario(t, cfg)
	an, err := NewAnalyzer(DefaultConfig())
	if err != nil {
		t.Fatal(err)
	}
	from := sc.Start
	to := from.Add(time.Duration(cfg.Days) * 24 * time.Hour)
	ref, err := an.Analyze(context.Background(), Docs(sc.History.Range(from, to)), sc.Target)
	if err != nil {
		t.Fatal(err)
	}

	// "Process one": crash entering window 60.
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
		an.Analyze(context.Background(), src, sc.Target)
	}()
	fault.Install(prev)

	// "Process two": a fresh source refolds from seed.
	if got := streamReport(t, cfg, 0); !reflect.DeepEqual(ref, got) {
		t.Fatal("refolded streaming analysis diverged from uninterrupted materialized run")
	}
}

// TestStreamingCancellationExact cancels a streaming sweep mid-fold and
// requires the cancellation to surface as ctx.Err() before the next
// document is pulled, and a later fold to be exact.
func TestStreamingCancellationExact(t *testing.T) {
	cfg := DefaultScenarioConfig(34)
	sc := mustScenario(t, cfg)
	an, err := NewAnalyzer(DefaultConfig())
	if err != nil {
		t.Fatal(err)
	}
	from := sc.Start
	to := from.Add(time.Duration(cfg.Days) * 24 * time.Hour)
	ref, err := an.Analyze(context.Background(), Docs(sc.History.Range(from, to)), sc.Target)
	if err != nil {
		t.Fatal(err)
	}

	// Cancel after window 50 folds: the source counts folds and trips the
	// context from inside the sweep, the way a deadline lands mid-run.
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	_, src, err := NewScenarioSource(cfg, 0)
	if err != nil {
		t.Fatal(err)
	}
	cs := &cancellingSource{DocSource: src, cancelAt: 50, cancel: cancel}
	if _, err := an.Analyze(ctx, cs, sc.Target); err != context.Canceled {
		t.Fatalf("cancelled sweep returned %v, want context.Canceled", err)
	}
	if cs.served != cs.cancelAt {
		t.Fatalf("sweep pulled %d documents, want it to stop at the cancel after %d", cs.served, cs.cancelAt)
	}

	if got := streamReport(t, cfg, 0); !reflect.DeepEqual(ref, got) {
		t.Fatal("fold after a cancellation diverged from uninterrupted run")
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
