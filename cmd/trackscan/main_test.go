package main

import (
	"bytes"
	"io"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"torhs/internal/core/tracking"
)

func TestFlagParsing(t *testing.T) {
	if err := run([]string{"-h"}, new(bytes.Buffer)); err != nil {
		t.Fatalf("-h returned %v, want nil", err)
	}
	if err := run([]string{"-bogus"}, new(bytes.Buffer)); err == nil {
		t.Fatal("bogus flag accepted")
	}
	if err := run([]string{"-scenario", "nope"}, new(bytes.Buffer)); err == nil {
		t.Fatal("unknown scenario accepted")
	}
	if err := run([]string{"-archive", "somewhere"}, new(bytes.Buffer)); err == nil {
		t.Fatal("archive mode without -target accepted")
	}
}

// TestDemoRunDetects runs the demo scenario end to end: the Section VII
// report renders with the planted trackers flagged, and -csv exports
// the per-relay analysis.
func TestDemoRunDetects(t *testing.T) {
	csvPath := filepath.Join(t.TempDir(), "relays.csv")
	var buf bytes.Buffer
	if err := run([]string{"-seed", "3", "-scenario", "smoke", "-csv", csvPath}, &buf); err != nil {
		t.Fatal(err)
	}
	out := buf.String()
	for _, want := range []string{"Section VII: tracking detection", "relays ever responsible:", "episodes:"} {
		if !strings.Contains(out, want) {
			t.Errorf("output missing %q:\n%s", want, out)
		}
	}
	data, err := os.ReadFile(csvPath)
	if err != nil {
		t.Fatal(err)
	}
	if len(strings.Split(strings.TrimSpace(string(data)), "\n")) < 2 {
		t.Fatalf("CSV export has no data rows:\n%s", string(data))
	}
}

// TestSaveAndArchiveRoundTrip: -save writes a loadable consensus
// archive, and archive mode re-analyzes it for an arbitrary target.
func TestSaveAndArchiveRoundTrip(t *testing.T) {
	dir := filepath.Join(t.TempDir(), "history")
	var buf bytes.Buffer
	if err := run([]string{"-seed", "3", "-scenario", "smoke", "-save", dir}, &buf); err != nil {
		t.Fatal(err)
	}
	// The demo prints the saved target's address on the save line.
	var target string
	for _, line := range strings.Split(buf.String(), "\n") {
		if strings.HasPrefix(line, "history saved to ") {
			fields := strings.Fields(line)
			target = strings.TrimSuffix(fields[len(fields)-1], ")")
		}
	}
	if target == "" {
		t.Fatalf("save line missing:\n%s", buf.String())
	}
	var archived bytes.Buffer
	if err := run([]string{"-archive", dir, "-target", target}, &archived); err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(archived.String(), "Section VII: tracking detection for "+target) {
		t.Fatalf("archive analysis missing target section:\n%s", archived.String())
	}

	// A window after the last saved consensus selects nothing; the error
	// names the empty window rather than the sweep's internals.
	err := run([]string{"-archive", dir, "-target", target, "-from", "2100-01-01T00:00:00Z"}, io.Discard)
	if err == nil || !strings.Contains(err.Error(), "no consensus documents in [2100-01-01") {
		t.Fatalf("empty window: err = %v, want it to name the window", err)
	}
}

// TestDemoAnalysesWholeLongWindow: the demo analyses every day of a
// scenario longer than ten years, not a fixed-length prefix of it.
func TestDemoAnalysesWholeLongWindow(t *testing.T) {
	cfg := tracking.DefaultScenarioConfig(3)
	cfg.Days = 3700
	cfg.InitialRelays = 40
	cfg.FinalRelays = 40
	var buf bytes.Buffer
	if err := runDemo(&buf, cfg, "", ""); err != nil {
		t.Fatal(err)
	}
	if want := "(3700 consensuses,"; !strings.Contains(buf.String(), want) {
		t.Fatalf("output missing %q:\n%s", want, buf.String())
	}
}
