package tracking

import (
	"context"
	"errors"
	"slices"
	"testing"
	"time"

	"torhs/internal/fault"
	"torhs/internal/onion"
	"torhs/internal/relay"
)

func TestNewAnalyzerValidation(t *testing.T) {
	cases := []struct {
		name string
		mod  func(*Config)
	}{
		{"ratio below one", func(c *Config) { c.RatioSuspicious = 0.5 }},
		{"strong below suspicious", func(c *Config) { c.RatioStrong = c.RatioSuspicious - 1 }},
		{"zero switches", func(c *Config) { c.MinSwitches = 0 }},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			cfg := DefaultConfig()
			tc.mod(&cfg)
			if _, err := NewAnalyzer(cfg); err == nil {
				t.Fatal("bad config accepted")
			}
		})
	}
}

func TestScenarioValidation(t *testing.T) {
	cfg := DefaultScenarioConfig(1)
	cfg.Days = 10 // shorter than episodes
	if _, err := BuildScenario(cfg); err == nil {
		t.Fatal("short scenario accepted")
	}
	cfg = DefaultScenarioConfig(1)
	cfg.BandEnd = cfg.BandStart
	if _, err := BuildScenario(cfg); err == nil {
		t.Fatal("empty band accepted")
	}
}

func buildAndAnalyze(t *testing.T, seed int64) (*Scenario, *Report) {
	t.Helper()
	sc, err := BuildScenario(DefaultScenarioConfig(seed))
	if err != nil {
		t.Fatal(err)
	}
	an, err := NewAnalyzer(DefaultConfig())
	if err != nil {
		t.Fatal(err)
	}
	rep, err := an.Analyze(context.Background(), Docs(sc.History.Range(sc.Start, sc.Start.Add(200*24*time.Hour))), sc.Target)
	if err != nil {
		t.Fatal(err)
	}
	return sc, rep
}

func suspiciousSet(rep *Report) map[relay.ID]RelayReport {
	out := make(map[relay.ID]RelayReport)
	for _, idx := range rep.Suspicious {
		out[rep.Relays[idx].RelayID] = rep.Relays[idx]
	}
	return out
}

func TestAnalyzeEmptyWindow(t *testing.T) {
	sc, err := BuildScenario(DefaultScenarioConfig(2))
	if err != nil {
		t.Fatal(err)
	}
	an, err := NewAnalyzer(DefaultConfig())
	if err != nil {
		t.Fatal(err)
	}
	before := sc.Start.Add(-100 * 24 * time.Hour)
	if _, err := an.Analyze(context.Background(), Docs(sc.History.Range(before, before.Add(24*time.Hour))), sc.Target); err == nil {
		t.Fatal("empty window accepted")
	}
}

func TestTrackingWindowFaultIsTransient(t *testing.T) {
	sc, err := BuildScenario(DefaultScenarioConfig(50))
	if err != nil {
		t.Fatal(err)
	}
	an, err := NewAnalyzer(DefaultConfig())
	if err != nil {
		t.Fatal(err)
	}
	in := fault.New(1)
	if err := in.Set(fault.SiteTrackingWindow, fault.Rule{Mode: fault.ModeErr, At: 5}); err != nil {
		t.Fatal(err)
	}
	prev := fault.Active()
	fault.Install(in)
	t.Cleanup(func() { fault.Install(prev) })
	_, err = an.Analyze(context.Background(), Docs(sc.History.Range(sc.Start, sc.Start.Add(120*24*time.Hour))), sc.Target)
	if err == nil {
		t.Fatal("analysis under an armed window fault succeeded")
	}
	if !errors.Is(err, fault.Transient) {
		t.Fatalf("window fault lost its transient classification: %v", err)
	}
}

func TestBandTrackersDetectedWithStrongRatio(t *testing.T) {
	sc, rep := buildAndAnalyze(t, 3)
	sus := suspiciousSet(rep)
	cfg := DefaultConfig()
	for _, id := range sc.BandRelayIDs {
		r, ok := sus[id]
		if !ok {
			t.Fatalf("band tracker %d not flagged", id)
		}
		if r.MaxRatio <= cfg.RatioStrong {
			t.Fatalf("band tracker %d ratio = %.0f, want > %.0f", id, r.MaxRatio, cfg.RatioStrong)
		}
		if r.SwitchesIntoPosition == 0 {
			t.Fatalf("band tracker %d has no switch-into-position evidence", id)
		}
	}
	// The band trackers must be the ONLY relays crossing the strong
	// ratio threshold apart from the takeover fleet — as the paper says,
	// "they are also the only responsible HSDirs that cross a ratio of
	// 10k" during their episode.
	planted := map[relay.ID]bool{}
	for _, id := range sc.BandRelayIDs {
		planted[id] = true
	}
	for _, id := range sc.TakeoverRelayIDs {
		planted[id] = true
	}
	for _, id := range sc.OwnRelayIDs {
		planted[id] = true
	}
	for _, r := range rep.Relays {
		if r.MaxRatio > cfg.RatioStrong && !planted[r.RelayID] {
			t.Fatalf("honest relay %d crossed strong ratio %.0f", r.RelayID, r.MaxRatio)
		}
	}
}

func TestTakeoverEpisodeDetected(t *testing.T) {
	sc, rep := buildAndAnalyze(t, 4)
	sus := suspiciousSet(rep)
	for _, id := range sc.TakeoverRelayIDs {
		if _, ok := sus[id]; !ok {
			t.Fatalf("takeover relay %d not flagged", id)
		}
	}
	// An episode with FullTakeover must exist and consist of the
	// takeover fleet.
	var full *Episode
	for i := range rep.Episodes {
		if rep.Episodes[i].FullTakeover {
			full = &rep.Episodes[i]
			break
		}
	}
	if full == nil {
		t.Fatal("no full-takeover episode found")
	}
	if len(full.RelayIDs) != 6 {
		t.Fatalf("takeover episode has %d members, want 6", len(full.RelayIDs))
	}
	want := map[relay.ID]bool{}
	for _, id := range sc.TakeoverRelayIDs {
		want[id] = true
	}
	for _, id := range full.RelayIDs {
		if !want[id] {
			t.Fatalf("unexpected takeover member %d", id)
		}
	}
}

func TestOwnProbesDetected(t *testing.T) {
	sc, rep := buildAndAnalyze(t, 5)
	sus := suspiciousSet(rep)
	found := 0
	for _, id := range sc.OwnRelayIDs {
		if r, ok := sus[id]; ok {
			found++
			if r.Switches == 0 {
				t.Fatalf("own probe %d flagged without switches", id)
			}
		}
	}
	if found == 0 {
		t.Fatal("no own-probe relay flagged")
	}
}

func TestHonestFalsePositiveRateLow(t *testing.T) {
	sc, rep := buildAndAnalyze(t, 6)
	planted := map[relay.ID]bool{}
	for _, ids := range [][]relay.ID{sc.OwnRelayIDs, sc.BandRelayIDs, sc.TakeoverRelayIDs} {
		for _, id := range ids {
			planted[id] = true
		}
	}
	falsePos := 0
	for _, idx := range rep.Suspicious {
		if !planted[rep.Relays[idx].RelayID] {
			falsePos++
		}
	}
	if falsePos > len(rep.Relays)/50 {
		t.Fatalf("false positives = %d of %d relays", falsePos, len(rep.Relays))
	}
}

func TestEpisodesClusterByNicknameStem(t *testing.T) {
	sc, rep := buildAndAnalyze(t, 7)
	var bandEp *Episode
	for i := range rep.Episodes {
		if rep.Episodes[i].Label == "tracknet" {
			bandEp = &rep.Episodes[i]
			break
		}
	}
	if bandEp == nil {
		t.Fatalf("no tracknet episode; episodes: %+v", rep.Episodes)
	}
	if len(bandEp.RelayIDs) != len(sc.BandRelayIDs) {
		t.Fatalf("band episode members = %d, want %d", len(bandEp.RelayIDs), len(sc.BandRelayIDs))
	}
	// Band episode must span (roughly) the configured band.
	cfg := DefaultScenarioConfig(7)
	wantFrom := sc.Start.Add(time.Duration(cfg.BandStart) * 24 * time.Hour)
	if bandEp.From.Before(wantFrom.Add(-48*time.Hour)) || bandEp.From.After(wantFrom.Add(48*time.Hour)) {
		t.Fatalf("band episode starts %v, want near %v", bandEp.From, wantFrom)
	}
}

func TestReportBasicAccounting(t *testing.T) {
	_, rep := buildAndAnalyze(t, 8)
	if rep.Days != 120 {
		t.Fatalf("days = %d, want 120", rep.Days)
	}
	if rep.MeanHSDirs <= 0 {
		t.Fatal("mean HSDirs not computed")
	}
	for i := 1; i < len(rep.Relays); i++ {
		if rep.Relays[i].TimesResponsible > rep.Relays[i-1].TimesResponsible {
			t.Fatal("relays not sorted by responsibility count")
		}
	}
	for _, r := range rep.Relays {
		if r.TimesResponsible == 0 {
			t.Fatal("report contains never-responsible relay")
		}
		if len(r.Occurrences) < r.TimesResponsible {
			t.Fatal("occurrences fewer than responsible days")
		}
	}
}

// TestObserveDocDoesNotAllocate pins the sweep's per-document fold: once
// a sweep has met every relay and its occurrence lists have room, one
// more fold allocates nothing.
func TestObserveDocDoesNotAllocate(t *testing.T) {
	sc := mustScenario(t, DefaultScenarioConfig(1))
	an, err := NewAnalyzer(DefaultConfig())
	if err != nil {
		t.Fatal(err)
	}
	docs := sc.History.Range(sc.Start, sc.Start.Add(30*24*time.Hour))
	sw := newSweep(an)
	for _, doc := range docs {
		sw.observeDoc(doc, sc.Target)
	}
	// Room for one document's occurrences, reused by every fold below.
	const perDoc = onion.Replicas * onion.SpreadPerReplica
	occs, occStates := slices.Grow(sw.occs, perDoc), slices.Grow(sw.occStates, perDoc)
	doc := docs[len(docs)-1]
	if avg := testing.AllocsPerRun(100, func() {
		sw.occs, sw.occStates = occs, occStates
		sw.observeDoc(doc, sc.Target)
	}); avg != 0 {
		t.Fatalf("observeDoc allocates %v times per document, want 0", avg)
	}
	if len(sw.occs) == len(occs) {
		t.Fatal("the folded document made the target no occurrence")
	}
}

func TestMarkResponsibleRuns(t *testing.T) {
	st := &relayState{lastRespDay: noRespDay}
	// -1 first: pre-epoch days must not collide with the sentinel.
	for _, day := range []int64{-1, 10, 10, 11, 12, 20, 21} {
		st.markResponsible(day)
	}
	if st.maxRun != 3 {
		t.Fatalf("max consecutive = %d, want 3", st.maxRun)
	}
	if st.respCount != 6 {
		t.Fatalf("distinct days = %d, want 6", st.respCount)
	}
	empty := &relayState{lastRespDay: noRespDay}
	if empty.maxRun != 0 {
		t.Fatalf("max consecutive empty = %d, want 0", empty.maxRun)
	}
}

func TestNicknameStem(t *testing.T) {
	for in, want := range map[string]string{
		"tracknet03":   "tracknet",
		"snatch-unit5": "snatch-unit",
		"relay":        "relay",
		"a-1_2":        "a",
	} {
		if got := nicknameStem(in); got != want {
			t.Fatalf("stem(%q) = %q, want %q", in, got, want)
		}
	}
}
