package tracking

import (
	"context"
	"runtime"
	"runtime/debug"
	"sync/atomic"
	"testing"
	"time"
)

// memScenarioConfig is a longer time axis than the default scenario —
// long enough that the materialized history dominates the live heap and
// the streamed/materialized gap is structural, not noise.
func memScenarioConfig() ScenarioConfig {
	cfg := DefaultScenarioConfig(35)
	cfg.Days = 365
	cfg.InitialRelays = 500
	cfg.FinalRelays = 700
	return cfg
}

// peakLiveHeapAbove runs fn with the GC pinned close to the live set
// (SetGCPercent(10), so HeapAlloc tracks live data within ~10%) and
// returns the peak HeapAlloc sampled during the run, minus the settled
// baseline before it — the working set fn added.
func peakLiveHeapAbove(t *testing.T, fn func()) uint64 {
	t.Helper()
	old := debug.SetGCPercent(10)
	defer debug.SetGCPercent(old)
	runtime.GC()
	runtime.GC()
	var base runtime.MemStats
	runtime.ReadMemStats(&base)

	var peak atomic.Uint64
	stop := make(chan struct{})
	done := make(chan struct{})
	go func() {
		defer close(done)
		var ms runtime.MemStats
		for {
			select {
			case <-stop:
				return
			default:
				runtime.ReadMemStats(&ms)
				if cur := ms.HeapAlloc; cur > peak.Load() {
					peak.Store(cur)
				}
				time.Sleep(time.Millisecond)
			}
		}
	}()
	fn()
	close(stop)
	<-done
	if p := peak.Load(); p > base.HeapAlloc {
		return p - base.HeapAlloc
	}
	return 0
}

// TestStreamingPeakHeapRegression is the memory-regression gate of the
// streaming pipeline: over a year-long scenario, the streamed analysis
// (bounded sliding ring, documents re-derived from seed) must peak at no
// more than half the materialized path's live heap. A kernel that starts
// retaining documents past its fold — the regression the torhsvet
// windowring analyzer exists to catch statically — fails this
// dynamically.
func TestStreamingPeakHeapRegression(t *testing.T) {
	if testing.Short() {
		t.Skip("year-long scenario build is not short")
	}
	cfg := memScenarioConfig()
	aCfg := DefaultConfig()
	aCfg.Workers = 1 // sequential on both sides: compare kernels, not shard counts
	an, err := NewAnalyzer(aCfg)
	if err != nil {
		t.Fatal(err)
	}

	materialized := peakLiveHeapAbove(t, func() {
		sc, err := BuildScenario(cfg)
		if err != nil {
			t.Fatal(err)
		}
		from := sc.Start
		to := from.Add(time.Duration(cfg.Days) * 24 * time.Hour)
		rep, err := an.AnalyzeSource(context.Background(), Docs(sc.History.Range(from, to)), sc.Target, nil, 0, false)
		if err != nil {
			t.Fatal(err)
		}
		if len(rep.Suspicious) == 0 {
			t.Fatal("materialized analysis found nothing")
		}
	})

	streamed := peakLiveHeapAbove(t, func() {
		sc, src, err := NewScenarioSource(cfg, 0)
		if err != nil {
			t.Fatal(err)
		}
		rep, err := an.AnalyzeSource(context.Background(), src, sc.Target, nil, 0, false)
		if err != nil {
			t.Fatal(err)
		}
		if len(rep.Suspicious) == 0 {
			t.Fatal("streamed analysis found nothing")
		}
	})

	t.Logf("peak live heap: materialized %d MB, streamed %d MB",
		materialized>>20, streamed>>20)
	if streamed > materialized/2 {
		t.Fatalf("streamed peak live heap %d MB exceeds half the materialized path's %d MB",
			streamed>>20, materialized>>20)
	}
}
