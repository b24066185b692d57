package main

import (
	"bytes"
	"encoding/json"
	"os"
	"reflect"
	"slices"
	"strings"
	"testing"

	"torhs/internal/analysis"
)

// TestRepoIsClean is the suite's own acceptance gate: torhsvet over the
// whole module must exit 0 — every finding fixed or carrying an audited
// suppression. The "torhs/..." pattern is cwd-independent (the test
// binary runs in cmd/torhsvet).
func TestRepoIsClean(t *testing.T) {
	if testing.Short() {
		t.Skip("loads and typechecks the whole module")
	}
	var stdout, stderr bytes.Buffer
	if code := run([]string{"torhs/..."}, &stdout, &stderr); code != 0 {
		t.Fatalf("torhsvet torhs/... exited %d, want 0\n%s", code, stderr.String())
	}
}

// TestListNamesEveryAnalyzer pins the -list contract the CI step and
// README rely on, and requires README's torhsvet table to list exactly
// the analyzers the suite runs.
func TestListNamesEveryAnalyzer(t *testing.T) {
	var stdout, stderr bytes.Buffer
	if code := run([]string{"-list"}, &stdout, &stderr); code != 0 {
		t.Fatalf("-list exited %d\n%s", code, stderr.String())
	}
	var want []string
	for _, a := range analysis.All() {
		want = append(want, a.Name)
		if !strings.Contains(stdout.String(), a.Name) {
			t.Errorf("-list output misses analyzer %q:\n%s", a.Name, stdout.String())
		}
	}
	readme, err := os.ReadFile("../../README.md")
	if err != nil {
		t.Fatal(err)
	}
	_, section, ok := strings.Cut(string(readme), "## Static guarantees: `torhsvet`")
	if !ok {
		t.Fatal("README has no torhsvet section")
	}
	section, _, _ = strings.Cut(section, "\n## ")
	var table []string
	for _, line := range strings.Split(section, "\n") {
		if name, ok := strings.CutPrefix(line, "| `"); ok {
			name, _, _ = strings.Cut(name, "`")
			table = append(table, name)
		}
	}
	if !slices.Equal(table, want) {
		t.Errorf("README's torhsvet table lists %v; the suite runs %v", table, want)
	}
}

// TestVersionStamp pins the -V=full handshake go vet uses to fingerprint
// a vettool for its action cache.
func TestVersionStamp(t *testing.T) {
	var stdout, stderr bytes.Buffer
	if code := run([]string{"-V=full"}, &stdout, &stderr); code != 0 {
		t.Fatalf("-V=full exited %d\n%s", code, stderr.String())
	}
	out := stdout.String()
	if !strings.HasPrefix(out, "torhsvet version ") {
		t.Errorf("-V=full output %q does not match the `name version ...` shape cmd/go expects", out)
	}
}

// TestFindingsExitNonzero runs the driver over a fixture package with
// known violations and requires a failing exit code plus readable
// positions — the contract that makes the CI step a real gate.
func TestFindingsExitNonzero(t *testing.T) {
	var stdout, stderr bytes.Buffer
	code := run([]string{"../../internal/analysis/testdata/src/detrand"}, &stdout, &stderr)
	if code != 2 {
		t.Fatalf("torhsvet over the detrand fixture exited %d, want 2\n%s", code, stderr.String())
	}
	if !strings.Contains(stderr.String(), "time.Now is nondeterministic") {
		t.Errorf("missing expected finding in output:\n%s", stderr.String())
	}
}

// FuzzDecodeVetConfig fuzzes the go vet config decoder, the one disk
// input torhsvet reads in vettool mode. The seed corpus under
// testdata/fuzz holds a config the go command wrote for a real
// `go vet -vettool` run (paths rewritten). No input may panic, and an
// accepted config must re-marshal to JSON that decodes to an equal
// config: whatever the decoder keeps survives a round trip.
func FuzzDecodeVetConfig(f *testing.F) {
	f.Add([]byte(`{"ID":"torhs/internal/stats","ImportPath":"torhs/internal/stats","GoFiles":["stats.go"]}`))
	f.Fuzz(func(t *testing.T, data []byte) {
		cfg, err := decodeVetConfig(data)
		if err != nil {
			return
		}
		out, err := json.Marshal(cfg)
		if err != nil {
			t.Fatalf("accepted config does not re-marshal: %v", err)
		}
		again, err := decodeVetConfig(out)
		if err != nil {
			t.Fatalf("re-marshalled config %s is refused: %v", out, err)
		}
		if !reflect.DeepEqual(again, cfg) {
			t.Fatalf("round trip changed the config:\n%+v\nvs\n%+v", cfg, again)
		}
	})
}
