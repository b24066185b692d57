package tracking

import (
	"context"
	"reflect"
	"runtime"
	"testing"
	"time"
)

// TestAnalyzeIdenticalAcrossWorkerCounts pins the sharded sweep's merge
// algebra: every worker count must reproduce the sequential report
// exactly — including the seams the merge has to stitch (fingerprint
// switches at shard boundaries, responsible-day runs crossing them, and
// boundary days counted by two shards).
func TestAnalyzeIdenticalAcrossWorkerCounts(t *testing.T) {
	old := runtime.GOMAXPROCS(8)
	defer runtime.GOMAXPROCS(old)

	sc, err := BuildScenario(DefaultScenarioConfig(50))
	if err != nil {
		t.Fatal(err)
	}
	from := sc.Start
	to := from.Add(120 * 24 * time.Hour)

	var base *Report
	for _, workers := range []int{1, 2, 3, 4, 8} {
		cfg := DefaultConfig()
		cfg.Workers = workers
		an, err := NewAnalyzer(cfg)
		if err != nil {
			t.Fatal(err)
		}
		rep, err := an.AnalyzeSource(context.Background(), Docs(sc.History.Range(from, to)), sc.Target, nil, 0, false)
		if err != nil {
			t.Fatal(err)
		}
		if base == nil {
			base = rep
			continue
		}
		if !reflect.DeepEqual(base, rep) {
			t.Fatalf("report differs between workers=1 and workers=%d", workers)
		}
	}
	if len(base.Relays) == 0 {
		t.Fatal("empty report")
	}
}
