package experiments

import (
	"bytes"
	"context"
	"errors"
	"io"
	"runtime/pprof"
	"strings"
	"testing"

	"torhs/internal/report"
)

// subsetConfig is the shared small-but-complete study configuration the
// registry tests run at.
func subsetConfig(seed int64, workers int) Config {
	cfg := DefaultConfig(seed)
	cfg.Scale = 0.02
	cfg.Clients = 250
	cfg.TrawlIPs = 12
	cfg.TrawlSteps = 3
	cfg.Relays = 300
	cfg.Workers = workers
	return cfg
}

// staticArtefact is an extension artefact with a fixed document.
type staticArtefact struct{ doc *report.Document }

func (a staticArtefact) Document() *report.Document { return a.doc }

// renderSubset runs the named experiments (nil = all) on a fresh Env and
// returns the rendered output.
func renderSubset(t *testing.T, seed int64, workers int, names []string) string {
	t.Helper()
	env, err := NewEnv(subsetConfig(seed, workers))
	if err != nil {
		t.Fatal(err)
	}
	var buf bytes.Buffer
	if _, err := Paper().RunStudy(context.Background(), env, RunOptions{Names: names}, &buf); err != nil {
		t.Fatal(err)
	}
	return buf.String()
}

// TestSubsetMatchesFullStudy is the registry's determinism contract: for
// a fixed seed, every registered experiment run alone renders
// byte-identically to its section of the full-study output — at one
// worker and at one-per-CPU — and the full output is exactly the
// concatenation of the per-experiment sections in paper order.
func TestSubsetMatchesFullStudy(t *testing.T) {
	const seed = 11
	full := renderSubset(t, seed, 1, nil)
	if full == "" {
		t.Fatal("full study rendered nothing")
	}
	var concat strings.Builder
	for _, name := range Paper().Names() {
		alone := renderSubset(t, seed, 1, []string{name})
		if alone == "" {
			t.Errorf("experiment %q rendered nothing", name)
		}
		if allWorkers := renderSubset(t, seed, 0, []string{name}); allWorkers != alone {
			t.Errorf("experiment %q renders differently at Workers=1 vs Workers=all:\n--- workers=1 ---\n%s\n--- workers=all ---\n%s",
				name, alone, allWorkers)
		}
		if !strings.Contains(full, alone) {
			t.Errorf("experiment %q run alone is not a section of the full study output:\n%s", name, alone)
		}
		concat.WriteString(alone)
	}
	if concat.String() != full {
		t.Errorf("concatenated per-experiment sections differ from the full study output:\n--- concatenated ---\n%s\n--- full ---\n%s",
			concat.String(), full)
	}
}

// TestSubsetRendersOnlySelection: a dependency pulled in for its result
// must execute but not render.
func TestSubsetRendersOnlySelection(t *testing.T) {
	out := renderSubset(t, 11, 0, []string{ExpContent})
	if strings.Contains(out, "Fig. 1") {
		t.Fatalf("content subset rendered its scan dependency:\n%s", out)
	}
	if !strings.Contains(out, "Table I") {
		t.Fatalf("content subset missing its own artefact:\n%s", out)
	}
}

// TestSubsetSharesDependencyExecution: within one Env, asking for the
// dependency's typed result after a dependent ran must not re-run it.
func TestSubsetSharesDependencyExecution(t *testing.T) {
	env, err := NewEnv(subsetConfig(11, 0))
	if err != nil {
		t.Fatal(err)
	}
	if _, err := Paper().RunStudy(context.Background(), env, RunOptions{Names: []string{ExpContent}}, io.Discard); err != nil {
		t.Fatal(err)
	}
	a, err := env.Dep(ExpScan)
	if err != nil {
		t.Fatalf("scan artefact not memoized after content ran: %v", err)
	}
	if a.(*scanArtefact).res == nil {
		t.Fatal("memoized scan artefact empty")
	}
}

func TestRegistryResolve(t *testing.T) {
	r := Paper()
	all, err := r.Resolve(nil)
	if err != nil {
		t.Fatal(err)
	}
	if len(all) != len(r.Names()) {
		t.Fatalf("Resolve(nil) = %d experiments, want %d", len(all), len(r.Names()))
	}
	closure, err := r.Resolve([]string{ExpContent})
	if err != nil {
		t.Fatal(err)
	}
	var names []string
	for _, e := range closure {
		names = append(names, e.Name())
	}
	if strings.Join(names, ",") != ExpScan+","+ExpContent {
		t.Fatalf("content closure = %v, want [scan content] in paper order", names)
	}
	if _, err := r.Resolve([]string{"nope"}); err == nil || !strings.Contains(err.Error(), ExpScan) {
		t.Fatalf("unknown experiment error should list the registry, got %v", err)
	}
}

func TestRegisterValidation(t *testing.T) {
	r := NewRegistry()
	ok := NewExperiment("a", "", nil, func(context.Context, *Env) (Artefact, error) { return staticArtefact{report.New("a")}, nil })
	if err := r.Register(ok); err != nil {
		t.Fatal(err)
	}
	for _, bad := range []Experiment{
		NewExperiment("a", "", nil, nil),                 // duplicate
		NewExperiment("", "", nil, nil),                  // empty
		NewExperiment("all", "", nil, nil),               // reserved
		NewExperiment("x,y", "", nil, nil),               // comma
		NewExperiment("b", "", []string{"missing"}, nil), // unknown dep
		NewExperiment("c", "", []string{"c"}, nil),       // self dep
	} {
		if err := r.Register(bad); err == nil {
			t.Errorf("Register(%q deps %v) accepted", bad.Name(), bad.Needs())
		}
	}
}

// TestCustomExperiment: a registered extension participates in
// scheduling, dependency resolution and rendering with no other wiring.
func TestCustomExperiment(t *testing.T) {
	r := Paper()
	err := r.Register(NewExperiment("descriptor-count", "how many services published", []string{ExpScan},
		func(ctx context.Context, e *Env) (Artefact, error) {
			dep, err := e.Dep(ExpScan)
			if err != nil {
				return nil, err
			}
			n := dep.(*scanArtefact).res.WithDescriptor
			return staticArtefact{report.New("descriptor-count",
				report.NewSection("descriptor-count", "custom: descriptor count").
					KVLine("%d", "withDescriptor", report.Int(n)))}, nil
		}))
	if err != nil {
		t.Fatal(err)
	}
	env, err := NewEnv(subsetConfig(3, 0))
	if err != nil {
		t.Fatal(err)
	}
	var buf bytes.Buffer
	if _, err := r.RunStudy(context.Background(), env, RunOptions{Names: []string{"descriptor-count"}}, &buf); err != nil {
		t.Fatal(err)
	}
	out := buf.String()
	if !strings.HasPrefix(out, "== custom: descriptor count ==") || strings.Contains(out, "Fig. 1") {
		t.Fatalf("custom experiment output wrong:\n%s", out)
	}
}

// TestRunPropagatesExperimentError: a failing experiment surfaces
// wrapped with its name, and dependents are skipped rather than run.
func TestRunPropagatesExperimentError(t *testing.T) {
	boom := errors.New("boom")
	r := NewRegistry()
	if err := r.Register(NewExperiment("fail", "", nil,
		func(context.Context, *Env) (Artefact, error) { return nil, boom })); err != nil {
		t.Fatal(err)
	}
	ran := false
	if err := r.Register(NewExperiment("child", "", []string{"fail"},
		func(context.Context, *Env) (Artefact, error) {
			ran = true
			return staticArtefact{report.New("child")}, nil
		})); err != nil {
		t.Fatal(err)
	}
	env, err := NewEnv(subsetConfig(1, 0))
	if err != nil {
		t.Fatal(err)
	}
	_, runErr := r.RunStudy(context.Background(), env, RunOptions{}, io.Discard)
	if !errors.Is(runErr, boom) || !strings.Contains(runErr.Error(), "fail") {
		t.Fatalf("err = %v, want wrapped boom", runErr)
	}
	if ran {
		t.Fatal("dependent of failed experiment ran")
	}
}

func TestDepBeforeRunIsAnError(t *testing.T) {
	env, err := NewEnv(subsetConfig(1, 0))
	if err != nil {
		t.Fatal(err)
	}
	if _, err := env.Dep(ExpScan); err == nil {
		t.Fatal("Dep before the dependency ran should error")
	}
	// The failed probe must not poison the memo: the experiment still
	// runs on this Env afterwards.
	if _, err := Paper().RunStudy(context.Background(), env, RunOptions{Names: []string{ExpScan}}, io.Discard); err != nil {
		t.Fatalf("scan no longer runs after an early Dep probe: %v", err)
	}
	if a, err := env.Dep(ExpScan); err != nil || a.(*scanArtefact).res == nil {
		t.Fatalf("Dep after the run = (%v, %v), want the scan artefact", a, err)
	}
}

func TestNewEnvValidation(t *testing.T) {
	for _, tc := range []struct {
		name   string
		mutate func(*Config)
	}{
		{"zero scale", func(c *Config) { c.Scale = 0 }},
		{"overscale", func(c *Config) { c.Scale = 2 }},
		{"negative bot factor", func(c *Config) { c.BotFactor = -1 }},
		{"negative tracking days", func(c *Config) { c.TrackingDays = -1 }},
	} {
		cfg := DefaultConfig(1)
		tc.mutate(&cfg)
		if _, err := NewEnv(cfg); err == nil {
			t.Errorf("%s accepted", tc.name)
		}
	}
}

// TestRunStudyLabelsEachExperiment pins the profiler labels: every
// experiment runs under pprof label experiment=<its name>, a dependency
// under its own name, not its dependent's.
func TestRunStudyLabelsEachExperiment(t *testing.T) {
	r := NewRegistry()
	got := map[string]string{}
	for _, e := range []struct {
		name  string
		needs []string
	}{{"labelled-dep", nil}, {"labelled", []string{"labelled-dep"}}} {
		name := e.name
		if err := r.Register(NewExperiment(name, "", e.needs,
			func(ctx context.Context, _ *Env) (Artefact, error) {
				got[name], _ = pprof.Label(ctx, "experiment")
				return staticArtefact{report.New(name)}, nil
			})); err != nil {
			t.Fatal(err)
		}
	}
	env, err := NewEnv(subsetConfig(1, 2))
	if err != nil {
		t.Fatal(err)
	}
	if _, err := r.RunStudy(context.Background(), env, RunOptions{}, io.Discard); err != nil {
		t.Fatal(err)
	}
	for _, name := range []string{"labelled-dep", "labelled"} {
		if got[name] != name {
			t.Errorf("experiment %q ran under label %q", name, got[name])
		}
	}
}
