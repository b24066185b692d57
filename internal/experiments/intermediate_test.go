package experiments

import (
	"bytes"
	"context"
	"path/filepath"
	"testing"
	"time"

	"torhs/internal/core/trawl"
	"torhs/internal/onion"
	"torhs/internal/resultstore"
)

// TestStoredRunSpillsIntermediatesAndSurvivesGC: a cache-armed run
// spills the trawl harvest as a content-addressed intermediate artefact,
// and a GC pass over the fresh store removes nothing a re-run needs —
// the cached re-run still serves every experiment byte-identically.
func TestStoredRunSpillsIntermediatesAndSurvivesGC(t *testing.T) {
	dir := t.TempDir()
	store, err := resultstore.Open(dir)
	if err != nil {
		t.Fatal(err)
	}
	cfg := subsetConfig(6, 0)
	env, err := NewEnv(cfg)
	if err != nil {
		t.Fatal(err)
	}
	opts := RunOptions{Scenario: "laptop", Store: store, UseCache: true}
	var first bytes.Buffer
	if _, err := Paper().RunStudy(context.Background(), env, opts, &first); err != nil {
		t.Fatal(err)
	}
	spills, err := filepath.Glob(filepath.Join(dir, "intermediates", "*", "*.bin"))
	if err != nil {
		t.Fatal(err)
	}
	if len(spills) == 0 {
		t.Fatal("stored run spilled no intermediate artefacts")
	}

	st, err := store.GC()
	if err != nil {
		t.Fatal(err)
	}
	if st.Removed != 0 {
		t.Fatalf("GC removed %d objects from a store with no orphans", st.Removed)
	}

	env2, err := NewEnv(cfg)
	if err != nil {
		t.Fatal(err)
	}
	var second bytes.Buffer
	res, err := Paper().RunStudy(context.Background(), env2, opts, &second)
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Executed) != 0 {
		t.Fatalf("post-GC run re-executed %v", res.Executed)
	}
	if first.String() != second.String() {
		t.Fatal("post-GC cached render diverged")
	}
}

// rawHarvestState is a trawl harvest intermediate as materialized runs
// spilled it before compact logs: raw request records and no compact
// aggregate. Its fields are a decoy that would change Table II if the
// state were restored.
type rawHarvestState struct {
	Addresses       map[onion.Address]bool
	DescriptorsSeen int
	Start, End      time.Time
	Requests        []rawRequest
}

// rawRequest has the gob fields of the raw request record that
// pre-compact logs kept and spilled.
type rawRequest struct {
	At     time.Time
	DescID onion.DescriptorID
	Found  bool
}

// TestRawHarvestIntermediateIsRecomputed: a raw-form harvest
// intermediate under the run's own cache key is treated as absent. The
// trawl re-runs, the popularity render matches a store-less run, and
// the spill is replaced by the compact form.
func TestRawHarvestIntermediateIsRecomputed(t *testing.T) {
	store, err := resultstore.Open(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	cfg := subsetConfig(8, 0)
	ints, err := store.Intermediates(storeKey(cfg, "laptop", "int-trawl-1"))
	if err != nil {
		t.Fatal(err)
	}
	var addr onion.Address
	if err := ints.Put("harvest", rawHarvestState{
		Addresses:       map[onion.Address]bool{addr: true},
		DescriptorsSeen: 1,
		Requests:        []rawRequest{{DescID: onion.DescriptorID{1}, Found: true}},
	}); err != nil {
		t.Fatal(err)
	}

	render := func(opts RunOptions) string {
		t.Helper()
		env, err := NewEnv(cfg)
		if err != nil {
			t.Fatal(err)
		}
		opts.Names = []string{ExpPopularity}
		var buf bytes.Buffer
		if _, err := Paper().RunStudy(context.Background(), env, opts, &buf); err != nil {
			t.Fatal(err)
		}
		return buf.String()
	}
	want := render(RunOptions{})
	if got := render(RunOptions{Scenario: "laptop", Store: store, UseCache: true}); got != want {
		t.Fatalf("run over a raw harvest intermediate diverged:\n--- got ---\n%s\n--- want ---\n%s", got, want)
	}
	var st trawl.HarvestState
	if ok, err := ints.Get("harvest", &st); err != nil || !ok {
		t.Fatalf("harvest intermediate missing after the run: ok=%v err=%v", ok, err)
	}
	if _, ok := trawl.HarvestFromState(&st); !ok {
		t.Fatal("the raw harvest intermediate was not replaced by the packed form")
	}
}
