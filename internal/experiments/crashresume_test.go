package experiments

import (
	"bytes"
	"context"
	"fmt"
	"os"
	"os/exec"
	"path/filepath"
	"strconv"
	"strings"
	"testing"

	"torhs/internal/fault"
	"torhs/internal/resultstore"
)

// The crash-kill matrix: for every registered fault site, a child
// process runs a small study with checkpointing and is hard-killed
// (os.Exit via TORHS_FAULT hard mode) the moment the site fires; a
// second child then resumes over the same store, and its rendered
// output must be byte-identical to an uninterrupted run — at workers=1
// and workers=all. The re-exec pattern is the real thing: the child
// parses TORHS_FAULT in package init and dies with a process exit, not
// a recovered panic, so resume starts from genuine cold state.

const (
	crashChildEnv   = "TORHS_CRASH_CHILD"   // marks the re-exec child
	crashDirEnv     = "TORHS_CRASH_DIR"     // store + output directory
	crashSelectEnv  = "TORHS_CRASH_SELECT"  // experiment selector
	crashWorkersEnv = "TORHS_CRASH_WORKERS" // worker count
	crashResumeEnv  = "TORHS_CRASH_RESUME"  // "1": resume from checkpoints
)

// crashConfig is the tiny study the matrix runs: big enough that every
// site fires, small enough for dozens of child processes.
func crashConfig(workers int) Config {
	cfg := DefaultConfig(7)
	cfg.Scale = 0.02
	cfg.Clients = 100
	cfg.TrawlIPs = 6
	cfg.TrawlSteps = 3
	cfg.Relays = 250
	cfg.Workers = workers
	return cfg
}

// TestCrashResumeChild is the re-exec entry point, inert unless the
// parent set the child environment.
func TestCrashResumeChild(t *testing.T) {
	if os.Getenv(crashChildEnv) == "" {
		t.Skip("re-exec child of TestResumeByteIdentical")
	}
	dir := os.Getenv(crashDirEnv)
	workers := 1
	if n, err := strconv.Atoi(os.Getenv(crashWorkersEnv)); err == nil {
		workers = n
	}
	store, err := resultstore.Open(filepath.Join(dir, "store"))
	if err != nil {
		t.Fatal(err)
	}
	env, err := NewEnv(crashConfig(workers))
	if err != nil {
		t.Fatal(err)
	}
	var buf bytes.Buffer
	_, err = Paper().RunStudy(context.Background(), env, RunOptions{
		Names:           parseNames(os.Getenv(crashSelectEnv)),
		Scenario:        "crash",
		Store:           store,
		UseCache:        true,
		CheckpointEvery: 1,
		Resume:          os.Getenv(crashResumeEnv) == "1",
	}, &buf)
	if err != nil {
		t.Fatalf("child study: %v", err)
	}
	if err := os.WriteFile(filepath.Join(dir, "out.txt"), buf.Bytes(), 0o644); err != nil {
		t.Fatal(err)
	}
}

func parseNames(s string) []string {
	var names []string
	for _, part := range bytes.Split([]byte(s), []byte(",")) {
		if len(part) > 0 {
			names = append(names, string(part))
		}
	}
	return names
}

// runChild re-execs the test binary into TestCrashResumeChild and
// returns its exit code and combined output.
func runChild(t *testing.T, dir, selector string, workers int, faultSpec string, resume bool) (int, string) {
	t.Helper()
	cmd := exec.Command(os.Args[0], "-test.run=^TestCrashResumeChild$", "-test.count=1")
	// Pin the child's GOMAXPROCS (dropping any inherited value — the
	// runtime takes the first match) so the worker matrix exercises real
	// sharding even on small runners.
	for _, kv := range os.Environ() {
		if !strings.HasPrefix(kv, "GOMAXPROCS=") {
			cmd.Env = append(cmd.Env, kv)
		}
	}
	cmd.Env = append(cmd.Env,
		"GOMAXPROCS=8",
		crashChildEnv+"=1",
		crashDirEnv+"="+dir,
		crashSelectEnv+"="+selector,
		fmt.Sprintf("%s=%d", crashWorkersEnv, workers),
	)
	if resume {
		cmd.Env = append(cmd.Env, crashResumeEnv+"=1")
	}
	if faultSpec != "" {
		cmd.Env = append(cmd.Env, fault.EnvVar+"="+faultSpec)
	}
	out, err := cmd.CombinedOutput()
	if err == nil {
		return 0, string(out)
	}
	if ee, ok := err.(*exec.ExitError); ok {
		return ee.ExitCode(), string(out)
	}
	t.Fatalf("re-exec failed: %v\n%s", err, out)
	return -1, ""
}

// crashCell is one site of the matrix: the experiments that can reach
// it and the hit index to kill at (late enough that real work — and for
// window sites, at least one checkpoint — precedes the crash).
type crashCell struct {
	site fault.Site
	sel  string
	at   int
}

func matrixCells() []crashCell {
	return []crashCell{
		{fault.SiteStoreWrite, "popularity,tracking", 2},
		{fault.SiteStoreRename, "popularity,tracking", 2},
		{fault.SiteStoreRead, "popularity,tracking", 2},
		{fault.SiteCheckpoint, "popularity,tracking", 4},
		{fault.SiteTask, "popularity,tracking", 2},
		{fault.SiteTrawlStep, "popularity", 3},
		{fault.SiteTrackingWindow, "tracking", 60},
		// deanon drives exactly one traffic window, so the kill must land
		// on the first hit.
		{fault.SiteSimWindow, "deanon", 1},
	}
}

// TestResumeByteIdentical is the acceptance-criterion matrix: kill at
// every registered fault site, at workers=1, workers=4 and workers=all,
// and require the resumed output to equal the uninterrupted run's bytes.
func TestResumeByteIdentical(t *testing.T) {
	if testing.Short() {
		t.Skip("re-exec matrix is not short")
	}
	refs := map[string][]byte{} // (selector|workers) -> uninterrupted output
	reference := func(sel string, workers int) []byte {
		key := fmt.Sprintf("%s|%d", sel, workers)
		if ref, ok := refs[key]; ok {
			return ref
		}
		dir := t.TempDir()
		if code, out := runChild(t, dir, sel, workers, "", false); code != 0 {
			t.Fatalf("reference run (%s workers=%d) exited %d\n%s", sel, workers, code, out)
		}
		ref, err := os.ReadFile(filepath.Join(dir, "out.txt"))
		if err != nil {
			t.Fatal(err)
		}
		refs[key] = ref
		return ref
	}

	for _, workers := range []int{1, 4, 0} {
		crashed := 0
		for _, cell := range matrixCells() {
			name := fmt.Sprintf("%s/workers=%d", cell.site, workers)
			dir := t.TempDir()
			spec := fmt.Sprintf("seed=1; hard; %s=crash@%d", cell.site, cell.at)
			code, out := runChild(t, dir, cell.sel, workers, spec, false)
			switch code {
			case fault.HardExitCode:
				crashed++
			case 0:
				// The site never reached hit `at` in this configuration;
				// the cell proves nothing, but must not mask a crash
				// that produced partial on-disk state.
				t.Logf("%s: site not hit (run completed); skipping cell", name)
				continue
			default:
				t.Fatalf("%s: crash child exited %d, want %d\n%s", name, code, fault.HardExitCode, out)
			}
			if _, err := os.Stat(filepath.Join(dir, "out.txt")); !os.IsNotExist(err) {
				t.Fatalf("%s: crashed child left an output file", name)
			}

			if code, out := runChild(t, dir, cell.sel, workers, "", true); code != 0 {
				t.Fatalf("%s: resume run exited %d\n%s", name, code, out)
			}
			got, err := os.ReadFile(filepath.Join(dir, "out.txt"))
			if err != nil {
				t.Fatal(err)
			}
			if want := reference(cell.sel, workers); !bytes.Equal(got, want) {
				t.Errorf("%s: resumed output diverged from uninterrupted run (%d vs %d bytes)",
					name, len(got), len(want))
			}
		}
		// The matrix is only evidence if the kills actually happened: a
		// cell whose site stops firing (code drift, config drift) must
		// fail loudly, not silently shrink coverage.
		if want := len(matrixCells()); crashed != want {
			t.Errorf("workers=%d: only %d/%d sites crashed the child; matrix lost coverage", workers, crashed, want)
		}
	}
}
