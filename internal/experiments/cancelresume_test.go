package experiments

import (
	"bytes"
	"context"
	"errors"
	"fmt"
	"io/fs"
	"path/filepath"
	"strings"
	"testing"
	"time"

	"torhs/internal/fault"
	"torhs/internal/resultstore"
)

// The cancellation matrix, the in-process sibling of the crash-kill
// matrix: a study runs under a cancellable context and is cancelled
// mid-kernel — timed off the fault-site hit counters, which tick at
// exactly the boundaries the //torhs:cancelpoint annotations guard —
// then a resume run over the same store must produce byte-identical
// output to an uninterrupted run, and every document the cancelled run
// published must be the full document (same content hash as the
// reference), never a partial one.

type cancelCell struct {
	site fault.Site
	sel  string
	at   int // cancel once the site has been hit this many times
}

func cancelCells() []cancelCell {
	return []cancelCell{
		// deanon drives exactly one traffic window; cancel as it starts.
		{fault.SiteSimWindow, "deanon", 1},
		// The second trawl step's window, the first on a rebuilt network.
		{fault.SiteSimWindow, "popularity", 2},
		{fault.SiteTrawlStep, "popularity", 2},
		{fault.SiteTrackingWindow, "tracking", 40},
		{fault.SiteTask, "popularity,tracking", 2},
		{fault.SiteCheckpoint, "collection,popularity,tracking", 3},
	}
}

// cancelStudy runs the small crashConfig study in-process under ctx.
func cancelStudy(ctx context.Context, store *resultstore.Store, sel string, workers int, resume bool) ([]byte, error) {
	env, err := NewEnv(crashConfig(workers))
	if err != nil {
		return nil, err
	}
	var buf bytes.Buffer
	_, err = Paper().RunStudy(ctx, env, RunOptions{
		Names:           parseNames(sel),
		Scenario:        "cancel",
		Store:           store,
		UseCache:        true,
		CheckpointEvery: 1,
		Resume:          resume,
	}, &buf)
	return buf.Bytes(), err
}

// cancelStudyAt runs cancelStudy and cancels it once site has been hit
// at times, returning the run's error (nil if it finished first). A
// rule-less injector still counts hits, giving the caller a clock that
// ticks at kernel boundaries.
func cancelStudyAt(store *resultstore.Store, sel string, workers int, site fault.Site, at int) error {
	inj := fault.New(1)
	fault.Install(inj)
	defer fault.Install(nil)
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	done := make(chan error, 1)
	go func() {
		_, err := cancelStudy(ctx, store, sel, workers, false)
		done <- err
	}()
	for inj.Hits(site) < at {
		select {
		case err := <-done:
			return err
		case <-time.After(200 * time.Microsecond):
		}
	}
	cancel()
	return <-done
}

// TestCancelResumeByteIdentical is the cancellation acceptance matrix:
// cancel at every kernel boundary site, at workers=1 and workers=all,
// and require (a) the run to surface context.Canceled, (b) every
// published document to match the uninterrupted run's content hash, and
// (c) the resumed output to equal the uninterrupted run's bytes.
func TestCancelResumeByteIdentical(t *testing.T) {
	if testing.Short() {
		t.Skip("cancellation matrix is not short")
	}

	type ref struct {
		out    []byte
		hashes map[string]string // experiment -> content hash
	}
	refs := map[string]ref{}
	reference := func(t *testing.T, sel string, workers int) ref {
		key := fmt.Sprintf("%s|%d", sel, workers)
		if r, ok := refs[key]; ok {
			return r
		}
		store, err := resultstore.Open(filepath.Join(t.TempDir(), "store"))
		if err != nil {
			t.Fatal(err)
		}
		out, err := cancelStudy(context.Background(), store, sel, workers, false)
		if err != nil {
			t.Fatalf("reference run (%s workers=%d): %v", sel, workers, err)
		}
		entries, err := store.List()
		if err != nil {
			t.Fatal(err)
		}
		hashes := map[string]string{}
		for _, e := range entries {
			hashes[e.Key.Experiment] = e.ContentHash
		}
		r := ref{out: out, hashes: hashes}
		refs[key] = r
		return r
	}

	for _, workers := range []int{1, 0} {
		cancelled := 0
		for _, cell := range cancelCells() {
			name := fmt.Sprintf("%s/workers=%d", cell.site, workers)
			want := reference(t, cell.sel, workers)

			store, err := resultstore.Open(filepath.Join(t.TempDir(), "store"))
			if err != nil {
				t.Fatal(err)
			}

			runErr := cancelStudyAt(store, cell.sel, workers, cell.site, cell.at)
			if runErr == nil {
				// The run outpaced the poll loop; the cell proves nothing
				// about cancellation, but must not mask bad store state.
				t.Logf("%s: study finished before the cancel landed; skipping cell", name)
			} else if !errors.Is(runErr, context.Canceled) {
				t.Fatalf("%s: cancelled run returned %v, want context.Canceled", name, runErr)
			} else {
				cancelled++
			}

			// Never-partial-documents: whatever the cancelled run managed
			// to publish must be the complete document — bit-identical to
			// the uninterrupted run's content hash for that experiment.
			entries, err := store.List()
			if err != nil {
				t.Fatal(err)
			}
			for _, e := range entries {
				wantHash, ok := want.hashes[e.Key.Experiment]
				if !ok {
					t.Fatalf("%s: cancelled run published unexpected experiment %q", name, e.Key.Experiment)
				}
				if e.ContentHash != wantHash {
					t.Fatalf("%s: experiment %q published with hash %s, want %s (partial document?)",
						name, e.Key.Experiment, e.ContentHash, wantHash)
				}
			}

			// Resume over the same store (fresh env, as a fresh process
			// would have) and require byte-identical output.
			got, err := cancelStudy(context.Background(), store, cell.sel, workers, true)
			if err != nil {
				t.Fatalf("%s: resume run: %v", name, err)
			}
			if !bytes.Equal(got, want.out) {
				t.Errorf("%s: resumed output diverged from uninterrupted run (%d vs %d bytes)",
					name, len(got), len(want.out))
			}
		}
		// The matrix is only evidence if the cancels actually landed
		// mid-run; a cell that consistently outruns the poll loop shrinks
		// coverage and must be retimed.
		if want := len(cancelCells()); cancelled != want {
			t.Errorf("workers=%d: only %d/%d cells cancelled mid-run; matrix lost coverage", workers, cancelled, want)
		}
	}
}

// TestCancelledTrackingLeavesNoSnapshot pins that the tracking sweep
// keeps no snapshots: a tracking-only study cancelled mid-sweep with a
// checkpoint after every window leaves no checkpoint file in the store,
// and its resume refolds to the uninterrupted run's bytes.
func TestCancelledTrackingLeavesNoSnapshot(t *testing.T) {
	if testing.Short() {
		t.Skip("cancellation run is not short")
	}
	refStore, err := resultstore.Open(filepath.Join(t.TempDir(), "store"))
	if err != nil {
		t.Fatal(err)
	}
	want, err := cancelStudy(context.Background(), refStore, ExpTracking, 1, false)
	if err != nil {
		t.Fatal(err)
	}

	dir := filepath.Join(t.TempDir(), "store")
	store, err := resultstore.Open(dir)
	if err != nil {
		t.Fatal(err)
	}
	if err := cancelStudyAt(store, ExpTracking, 1, fault.SiteTrackingWindow, 40); !errors.Is(err, context.Canceled) {
		t.Fatalf("cancelled run returned %v, want context.Canceled", err)
	}
	var ckpts []string
	err = filepath.WalkDir(dir, func(path string, _ fs.DirEntry, err error) error {
		if strings.HasSuffix(path, ".ckpt") {
			ckpts = append(ckpts, path)
		}
		return err
	})
	if err != nil {
		t.Fatal(err)
	}
	if len(ckpts) != 0 {
		t.Fatalf("cancelled tracking sweep left checkpoint files: %v", ckpts)
	}

	got, err := cancelStudy(context.Background(), store, ExpTracking, 1, true)
	if err != nil {
		t.Fatalf("resume run: %v", err)
	}
	if !bytes.Equal(got, want) {
		t.Errorf("resumed output diverged from uninterrupted run (%d vs %d bytes)", len(got), len(want))
	}
}
