package main

import (
	"bytes"
	"os"
	"regexp"
	"strings"
	"testing"

	"torhs/internal/experiments"
	"torhs/internal/report"
	"torhs/internal/resultstore"
	"torhs/internal/scenario"
)

// TestDocCommentMatchesRegistry pins the package doc comment's
// experiment and scenario lists to the live registry and presets, so the
// CLI documentation can never go stale again (the pre-registry switch
// shipped with an outdated list for two releases).
func TestDocCommentMatchesRegistry(t *testing.T) {
	src, err := os.ReadFile("main.go")
	if err != nil {
		t.Fatal(err)
	}
	doc := string(src[:bytes.Index(src, []byte("package main"))])
	// The doc comment wraps the lists over lines; normalise to one line.
	flat := regexp.MustCompile(`(?m)^// ?`).ReplaceAllString(doc, "")
	flat = strings.ReplaceAll(flat, "\n", " ")

	wantExps := "Experiments: " + strings.Join(experiments.Paper().Names(), ", ") + "."
	if !strings.Contains(flat, wantExps) {
		t.Errorf("doc comment experiment list stale:\nwant %q", wantExps)
	}
	wantScens := "Scenarios: " + strings.Join(scenario.Names(), ", ") + "."
	if !strings.Contains(flat, wantScens) {
		t.Errorf("doc comment scenario list stale:\nwant %q", wantScens)
	}
}

// TestListRendersRegistryAndPresets: -list must cover every registry
// name and preset, in the awk-carvable two-section format.
func TestListRendersRegistryAndPresets(t *testing.T) {
	var buf bytes.Buffer
	if err := run([]string{"-list"}, &buf); err != nil {
		t.Fatal(err)
	}
	out := buf.String()
	for _, name := range experiments.Paper().Names() {
		if !strings.Contains(out, "\n  "+name) && !strings.HasPrefix(out, "  "+name) {
			t.Errorf("-list missing experiment %q:\n%s", name, out)
		}
	}
	for _, name := range scenario.Names() {
		if !strings.Contains(out, "\n  "+name) {
			t.Errorf("-list missing scenario %q:\n%s", name, out)
		}
	}
	if !strings.Contains(out, experiments.ExpPrefixAudit) {
		t.Errorf("-list missing the prefix audit:\n%s", out)
	}
}

// TestCLIRunsSubsetThroughRegistry: a comma-separated subset including
// the previously CLI-unreachable prefix audit resolves and renders only
// the selection.
func TestCLIRunsSubsetThroughRegistry(t *testing.T) {
	var buf bytes.Buffer
	err := run([]string{
		"-scenario", "smoke", "-seed", "3",
		"-scale", "0.02", "-clients", "100", "-trawl-ips", "6", "-trawl-steps", "2", "-relays", "250",
		"-experiment", "prefix-audit,tracking",
	}, &buf)
	if err != nil {
		t.Fatal(err)
	}
	out := buf.String()
	if !strings.Contains(out, "Vanity-prefix") || !strings.Contains(out, "Section VII") {
		t.Fatalf("subset output incomplete:\n%s", out)
	}
	if strings.Contains(out, "Fig. 1") || strings.Contains(out, "Table II") {
		t.Fatalf("subset rendered unselected experiments:\n%s", out)
	}
	// Paper order, regardless of selector order.
	if strings.Index(out, "Vanity-prefix") > strings.Index(out, "Section VII") {
		t.Fatalf("subset rendered out of paper order:\n%s", out)
	}
}

func TestCLIRejectsUnknownNames(t *testing.T) {
	if err := run([]string{"-experiment", "nope"}, new(bytes.Buffer)); err == nil {
		t.Fatal("unknown experiment accepted")
	}
	if err := run([]string{"-scenario", "nope"}, new(bytes.Buffer)); err == nil {
		t.Fatal("unknown scenario accepted")
	}
}

// cliArgs is the shared tiny-scale argument prefix for store/format
// tests.
func cliArgs(extra ...string) []string {
	return append([]string{
		"-scenario", "smoke", "-seed", "3",
		"-scale", "0.02", "-clients", "100", "-trawl-ips", "6", "-trawl-steps", "2", "-relays", "250",
		"-experiment", "prefix-audit",
	}, extra...)
}

// TestCLIStoreAndCache: -out persists documents, a second -cache run
// emits byte-identical output from the store, and -cache without -out
// is rejected.
func TestCLIStoreAndCache(t *testing.T) {
	dir := t.TempDir()
	var fresh bytes.Buffer
	if err := run(cliArgs("-out", dir), &fresh); err != nil {
		t.Fatal(err)
	}
	store, err := resultstore.Open(dir)
	if err != nil {
		t.Fatal(err)
	}
	// cliArgs overrides preset sizing, so the run is indexed under
	// "custom", never hijacking the smoke preset's serving slot.
	if e, err := store.Lookup("custom", "prefix-audit"); err != nil || e == nil {
		t.Fatalf("document not persisted under custom: entry=%v err=%v", e, err)
	}
	if e, err := store.Lookup("smoke", "prefix-audit"); err != nil || e != nil {
		t.Fatalf("overridden run claimed the smoke slot: entry=%v err=%v", e, err)
	}

	var cached bytes.Buffer
	if err := run(cliArgs("-out", dir, "-cache"), &cached); err != nil {
		t.Fatal(err)
	}
	if cached.String() != fresh.String() {
		t.Fatalf("cached output differs:\n--- fresh ---\n%s\n--- cached ---\n%s", fresh.String(), cached.String())
	}

	if err := run(cliArgs("-cache"), new(bytes.Buffer)); err == nil {
		t.Fatal("-cache without -out accepted")
	}
}

// TestCLIFormats: -format json emits a decodable document carrying the
// same sections, and unknown formats are rejected.
func TestCLIFormats(t *testing.T) {
	var buf bytes.Buffer
	if err := run(cliArgs("-format", "json"), &buf); err != nil {
		t.Fatal(err)
	}
	doc, err := report.DecodeJSON(&buf)
	if err != nil {
		t.Fatalf("-format json output not a document: %v", err)
	}
	if doc.Title != "custom" || len(doc.Sections) == 0 || doc.Sections[0].ID != "prefix-audit" {
		t.Fatalf("JSON document unexpected: title=%q sections=%d", doc.Title, len(doc.Sections))
	}
	if err := run(cliArgs("-format", "xml"), new(bytes.Buffer)); err == nil {
		t.Fatal("unknown format accepted")
	}
}

func TestCLIHelpIsNotAnError(t *testing.T) {
	if err := run([]string{"-h"}, new(bytes.Buffer)); err != nil {
		t.Fatalf("-h returned %v, want nil", err)
	}
	if err := run([]string{"-bogus-flag"}, new(bytes.Buffer)); err == nil {
		t.Fatal("bogus flag accepted")
	}
}

// TestCLIGC: -gc sweeps orphans out of the -out store, reports the
// stats, and requires the store flag.
func TestCLIGC(t *testing.T) {
	dir := t.TempDir()
	if err := run(cliArgs("-out", dir), new(bytes.Buffer)); err != nil {
		t.Fatal(err)
	}
	// Re-run at a different seed under the same scenario slot: the index
	// entry rebinds and the first run's objects become orphans.
	args := cliArgs("-out", dir)
	for i, a := range args {
		if a == "3" && args[i-1] == "-seed" {
			args[i] = "4"
		}
	}
	if err := run(args, new(bytes.Buffer)); err != nil {
		t.Fatal(err)
	}
	var out bytes.Buffer
	if err := run([]string{"-gc", "-out", dir}, &out); err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(out.String(), "orphans removed") {
		t.Fatalf("-gc output %q missing the stats line", out.String())
	}
	if err := run([]string{"-gc"}, new(bytes.Buffer)); err == nil {
		t.Fatal("-gc without -out accepted")
	}
}
