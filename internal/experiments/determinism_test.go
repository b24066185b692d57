package experiments

import (
	"bytes"
	"os"
	"runtime"
	"testing"

	"torhs/internal/scenario"
)

// renderSmoke runs the golden smoke study (the smoke preset at seed 42)
// at the given worker count and returns the rendered output.
func renderSmoke(t *testing.T, workers int) []byte {
	t.Helper()
	cfg := ConfigFromSpec(scenario.MustLookup(scenario.Smoke), 42)
	cfg.Workers = workers
	s, err := NewStudy(cfg)
	if err != nil {
		t.Fatal(err)
	}
	var buf bytes.Buffer
	if err := s.RunAll(&buf); err != nil {
		t.Fatal(err)
	}
	return buf.Bytes()
}

// TestRunAllDeterministicAcrossWorkers is the hard invariant of the
// concurrent scheduler: the same seed must produce byte-identical
// rendered output at any worker count, and that output is the committed
// golden render (TestGoldenSmokeStudy). Run under -race this also
// exercises every concurrent path in the pipeline.
func TestRunAllDeterministicAcrossWorkers(t *testing.T) {
	// Pin GOMAXPROCS so the Effective clamp cannot collapse the matrix
	// to one shard on small runners: every worker count below must
	// exercise real sharding.
	old := runtime.GOMAXPROCS(8)
	defer runtime.GOMAXPROCS(old)

	want, err := os.ReadFile(goldenSmokePath)
	if err != nil {
		t.Fatal(err)
	}
	for _, workers := range []int{1, 2, 3, 4, 8} {
		if got := renderSmoke(t, workers); !bytes.Equal(got, want) {
			t.Fatalf("RunAll output at Workers=%d differs from %s (%d vs %d bytes):\n%s",
				workers, goldenSmokePath, len(got), len(want), got)
		}
	}
}
