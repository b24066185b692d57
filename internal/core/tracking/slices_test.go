package tracking

import (
	"context"
	"math/rand"
	"strings"
	"testing"
	"time"

	"torhs/internal/hsdir"
	"torhs/internal/onion"
)

func TestMineFingerprintLandsFirstOnRing(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	// Build a realistic ring and verify a mined fingerprint becomes the
	// first responsible relay for the descriptor ID.
	fps := make([]onion.Fingerprint, 1400)
	for i := range fps {
		fps[i] = onion.RandomFingerprint(rng)
	}
	var descID onion.DescriptorID
	f := onion.RandomFingerprint(rng)
	copy(descID[:], f[:])

	mined := MineFingerprint(descID, 1400, 10000, 1)
	ring := hsdir.NewRing(append(fps, mined))
	resp := ring.Responsible(descID, 3)
	if resp[0] != mined {
		t.Fatal("mined fingerprint is not the first responsible relay")
	}
	// And the measured ratio is near the target.
	ratio := onion.RingRatio(ring.AverageGap(), onion.Distance(descID, mined))
	if ratio < 2000 || ratio > 50000 {
		t.Fatalf("measured ratio = %.0f, want order of 10k", ratio)
	}
}

func TestMineFingerprintSlotsOrdered(t *testing.T) {
	var descID onion.DescriptorID
	descID[0] = 0x42
	m1 := MineFingerprint(descID, 1000, 1000, 1)
	m2 := MineFingerprint(descID, 1000, 1000, 2)
	m3 := MineFingerprint(descID, 1000, 1000, 3)
	if !m1.Less(m2) || !m2.Less(m3) {
		t.Fatal("slots not ordered on the ring")
	}
	// All must follow the descriptor ID.
	var asFP onion.Fingerprint
	copy(asFP[:], descID[:])
	if !asFP.Less(m1) {
		t.Fatal("slot 1 does not follow the descriptor ID")
	}
}

func TestMineFingerprintDegenerateInputs(t *testing.T) {
	var descID onion.DescriptorID
	// Zero ring size, sub-1 ratio and zero slot must not panic and must
	// still return a following fingerprint.
	m := MineFingerprint(descID, 0, 0.1, 0)
	var asFP onion.Fingerprint
	copy(asFP[:], descID[:])
	if !asFP.Less(m) && asFP != m {
		t.Fatal("degenerate mining went backwards")
	}
}

func TestAnalyzeSlicesValidation(t *testing.T) {
	sc, err := BuildScenario(DefaultScenarioConfig(30))
	if err != nil {
		t.Fatal(err)
	}
	an, err := NewAnalyzer(DefaultConfig())
	if err != nil {
		t.Fatal(err)
	}
	end := sc.Start.Add(119 * 24 * time.Hour)
	if _, err := an.AnalyzeSlices(context.Background(), sc.History, sc.Target, sc.Start, end, 0); err == nil {
		t.Fatal("zero slices accepted")
	}
	if _, err := an.AnalyzeSlices(context.Background(), sc.History, sc.Target, end, sc.Start, 2); err == nil {
		t.Fatal("inverted window accepted")
	}
}

func TestAnalyzeSlicesCoverWholeWindowDisjointly(t *testing.T) {
	sc, err := BuildScenario(DefaultScenarioConfig(31))
	if err != nil {
		t.Fatal(err)
	}
	an, err := NewAnalyzer(DefaultConfig())
	if err != nil {
		t.Fatal(err)
	}
	end := sc.Start.Add(119 * 24 * time.Hour)
	reports, err := an.AnalyzeSlices(context.Background(), sc.History, sc.Target, sc.Start, end, 3)
	if err != nil {
		t.Fatal(err)
	}
	if len(reports) != 3 {
		t.Fatalf("reports = %d, want 3", len(reports))
	}
	totalDays := 0
	for i, rep := range reports {
		totalDays += rep.Days
		if i > 0 && !reports[i-1].To.Before(rep.From) {
			t.Fatal("slices overlap")
		}
	}
	if totalDays != 120 {
		t.Fatalf("slices cover %d days, want 120", totalDays)
	}
	// The takeover episode must appear in the last slice only.
	for i, rep := range reports {
		full := false
		for _, ep := range rep.Episodes {
			if ep.FullTakeover {
				full = true
			}
		}
		if i == 2 && !full {
			t.Fatal("takeover missing from final slice")
		}
		if i != 2 && full {
			t.Fatalf("takeover leaked into slice %d", i)
		}
	}
}

func TestWriteCSV(t *testing.T) {
	sc, err := BuildScenario(DefaultScenarioConfig(33))
	if err != nil {
		t.Fatal(err)
	}
	an, err := NewAnalyzer(DefaultConfig())
	if err != nil {
		t.Fatal(err)
	}
	rep, err := an.AnalyzeSource(context.Background(), Docs(sc.History.Range(sc.Start, sc.Start.Add(120*24*time.Hour))), sc.Target, nil, 0, false)
	if err != nil {
		t.Fatal(err)
	}
	var sb strings.Builder
	if err := rep.WriteCSV(&sb); err != nil {
		t.Fatal(err)
	}
	out := sb.String()
	lines := strings.Count(out, "\n")
	if lines != len(rep.Relays)+1 {
		t.Fatalf("csv has %d lines, want %d", lines, len(rep.Relays)+1)
	}
	if !strings.HasPrefix(out, "relay_id,") {
		t.Fatal("csv header missing")
	}
	if !strings.Contains(out, "tracknet") {
		t.Fatal("csv missing tracker rows")
	}
}

func TestSliceThresholdsTrackRingGrowth(t *testing.T) {
	sc, err := BuildScenario(DefaultScenarioConfig(32))
	if err != nil {
		t.Fatal(err)
	}
	an, err := NewAnalyzer(DefaultConfig())
	if err != nil {
		t.Fatal(err)
	}
	end := sc.Start.Add(119 * 24 * time.Hour)
	reports, err := an.AnalyzeSlices(context.Background(), sc.History, sc.Target, sc.Start, end, 3)
	if err != nil {
		t.Fatal(err)
	}
	// The network grows, so the mean ring size grows per slice and the
	// per-relay selection probability shrinks.
	if !(reports[0].MeanHSDirs < reports[2].MeanHSDirs) {
		t.Fatalf("ring growth not visible: %.0f .. %.0f",
			reports[0].MeanHSDirs, reports[2].MeanHSDirs)
	}
}
