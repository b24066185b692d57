package main

import (
	"encoding/json"
	"os"
	"os/exec"
	"path/filepath"
	"strings"
	"testing"

	"torhs/internal/experiments"
	"torhs/internal/resultstore"
)

// TestMain lets the test binary serve as its own study child process,
// as the benchmark binary does.
func TestMain(m *testing.M) {
	if req := os.Getenv(childEnv); req != "" {
		os.Exit(childMain(req))
	}
	os.Exit(m.Run())
}

// smokeSeed has no committed digest, so a smoke-sized run checks that
// its repetitions agree instead.
const smokeSeed = 1000

// smokeSized shrinks the study workloads to the smoke preset for the
// duration of a test, keeping each one's shape (subset, store).
func smokeSized(t *testing.T) {
	saved := workloads
	t.Cleanup(func() { workloads = saved })
	workloads = append([]workload(nil), saved...)
	for i := range workloads {
		spec := &workloads[i].study
		spec.Preset = "smoke"
		spec.TrawlSteps, spec.TrackingDays = 0, 0
	}
}

func buildHsserve(t *testing.T) string {
	t.Helper()
	bin := filepath.Join(t.TempDir(), "hsserve")
	cmd := exec.Command("go", "build", "-o", bin, "torhs/cmd/hsserve")
	if out, err := cmd.CombinedOutput(); err != nil {
		t.Fatalf("build hsserve: %v\n%s", err, out)
	}
	return bin
}

func TestDeclarationsMatchBenchmarkJSON(t *testing.T) {
	data, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	var b struct {
		Workloads []struct{ Name, Why string }
		EndToEnd  []struct{ Name, Unit string } `json:"end_to_end"`
		PerLayer  []struct{ Name, Unit string } `json:"per_layer"`
	}
	if err := json.Unmarshal(data, &b); err != nil {
		t.Fatal(err)
	}
	same := func(what string, got []metricDecl, want []struct{ Name, Unit string }) {
		if len(got) != len(want) {
			t.Errorf("%s: %d declared in code, %d in BENCHMARK.json", what, len(got), len(want))
			return
		}
		for i := range got {
			if got[i].name != want[i].Name || got[i].unit != want[i].Unit {
				t.Errorf("%s %d: code %s [%s], BENCHMARK.json %s [%s]", what, i, got[i].name, got[i].unit, want[i].Name, want[i].Unit)
			}
		}
	}
	same("end_to_end", endToEnd, b.EndToEnd)
	same("per_layer", perLayer, b.PerLayer)
	for _, bw := range b.Workloads {
		w, err := lookupWorkload(bw.Name)
		if err != nil {
			t.Error(err)
		} else if w.why != bw.Why {
			t.Errorf("workload %s: why differs between code and BENCHMARK.json", bw.Name)
		}
	}
}

func TestInteractionMapNamesDeclaredMetrics(t *testing.T) {
	data, err := os.ReadFile("interactions.json")
	if err != nil {
		t.Fatal(err)
	}
	var m struct {
		Moves []struct {
			Layer, Moves string
			Workloads    []string
		}
		NoChange []struct{ Layer, Metric, Workload string } `json:"no_change"`
	}
	if err := json.Unmarshal(data, &m); err != nil {
		t.Fatal(err)
	}
	e2e, layers, names := map[string]bool{}, map[string]bool{}, map[string]bool{}
	for _, d := range endToEnd {
		e2e[d.name] = true
	}
	for _, d := range perLayer {
		layers[d.name] = true
	}
	for _, w := range workloads {
		names[w.name] = true
	}
	// A layer moves an end-to-end metric or, for the serving layers that
	// only the long-axis traced run measures, a serving metric.
	for _, mv := range m.Moves {
		if !layers[mv.Layer] || !e2e[mv.Moves] && !layers[mv.Moves] {
			t.Errorf("moves: %s → %s names an undeclared metric", mv.Layer, mv.Moves)
		}
		for _, w := range mv.Workloads {
			if !names[w] {
				t.Errorf("moves: %s names unknown workload %s", mv.Layer, w)
			}
		}
	}
	for _, nc := range m.NoChange {
		if !layers[nc.Layer] || !e2e[nc.Metric] && !layers[nc.Metric] || !names[nc.Workload] {
			t.Errorf("no_change: %+v names an undeclared metric or workload", nc)
		}
	}
}

// checkResult asserts that a run emitted exactly the declared metrics,
// each with its declared unit.
func checkResult(t *testing.T, res *result, trace bool) {
	t.Helper()
	decls := endToEnd
	if trace {
		decls = perLayer
	}
	if len(res.Metrics) != len(decls) {
		t.Errorf("%d metrics emitted, %d declared", len(res.Metrics), len(decls))
	}
	for _, d := range decls {
		m, ok := res.Metrics[d.name]
		switch {
		case !ok:
			t.Errorf("metric %s not emitted", d.name)
		case m.Unit != d.unit:
			t.Errorf("metric %s unit %q, declared %q", d.name, m.Unit, d.unit)
		case !trace && m.Value <= 0:
			t.Errorf("end-to-end metric %s = %v, want > 0", d.name, m.Value)
		}
	}
}

func TestSmokeWorkloads(t *testing.T) {
	if testing.Short() {
		t.Skip("runs every workload at smoke size")
	}
	smokeSized(t)
	hsserve := buildHsserve(t)
	for _, w := range workloads {
		for _, trace := range []bool{false, true} {
			res, err := run(options{workload: w.name, seed: smokeSeed, seconds: 1, trace: trace,
				hsserve: hsserve, workdir: t.TempDir()})
			if err != nil {
				t.Fatalf("%s trace=%v: %v", w.name, trace, err)
			}
			if !res.Correct || res.Failed != 0 || res.Attempted == 0 {
				t.Errorf("%s trace=%v: correct=%v attempted=%d failed=%d", w.name, trace, res.Correct, res.Attempted, res.Failed)
			}
			checkResult(t, res, trace)
		}
	}
}

func TestTamperedDigestCountsAsFailed(t *testing.T) {
	if testing.Short() {
		t.Skip("runs a smoke-sized study")
	}
	smokeSized(t)
	saved := digests["paper-scale"]
	t.Cleanup(func() { digests["paper-scale"] = saved })
	digests["paper-scale"] = map[string]string{"1000": strings.Repeat("0", 64)}

	res, err := run(options{workload: "paper-scale", seed: smokeSeed, seconds: 1, workdir: t.TempDir()})
	if err != nil {
		t.Fatal(err)
	}
	if res.Correct || res.Failed != res.Attempted {
		t.Errorf("tampered digest: correct=%v attempted=%d failed=%d, want every repetition failed", res.Correct, res.Attempted, res.Failed)
	}
}

func TestTamperedBodyCountsAsFailed(t *testing.T) {
	if testing.Short() {
		t.Skip("runs a smoke study and a server")
	}
	dir := t.TempDir()
	if _, err := populate(dir, smokeSeed); err != nil {
		t.Fatal(err)
	}
	srv, err := startServer(buildHsserve(t), dir)
	if err != nil {
		t.Fatal(err)
	}
	defer srv.stop()
	store, err := resultstore.Open(dir)
	if err != nil {
		t.Fatal(err)
	}
	exp, err := expect(store)
	if err != nil {
		t.Fatal(err)
	}
	c := newConn(srv.base, exp, smokeSeed)
	defer c.close()
	if _, failed := learnETags(c); failed != 0 {
		t.Fatalf("%d reads failed before tampering", failed)
	}

	// One body, one ETag and one listing hash no longer match what the
	// server says: each read of them must count as failed.
	exp.bodies[0][0] = append([]byte("x"), exp.bodies[0][0]...)
	exp.etags[1][0] = `"tampered"`
	exp.hashes[experiments.ExpTracking] = "tampered"
	for _, r := range []mixReq{
		{kind: kindRead, exp: 0, format: 0},
		{kind: kindRead, exp: 1, format: 0},
		{kind: kindRead, exp: 1, format: 0, cond: true},
		{kind: kindListing},
	} {
		if _, err := c.do(r); err == nil {
			t.Errorf("%+v: tampered expectation accepted", r)
		}
	}
	st := openLoop([]*conn{c}, smokeSeed, 0, 500, 0, 500e6)
	if st.failed == 0 {
		t.Errorf("open loop over tampered expectations: no failures in %d sent", st.sent)
	}
}
